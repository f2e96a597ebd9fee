#ifndef BCDB_TESTS_COUNTING_ALLOCATOR_H_
#define BCDB_TESTS_COUNTING_ALLOCATOR_H_

#include <cstddef>

namespace bcdb {
namespace testing_fixtures {

/// Number of heap allocations (every form of the global operator new) the
/// process has made. Defined by counting_allocator.cc, which replaces the
/// global allocation functions; a test binary that links it counts every
/// allocation. The replacements sit in their own translation unit so the
/// compiler never sees a replaced `delete` beside a `new` it inlined.
std::size_t HeapAllocations();

}  // namespace testing_fixtures
}  // namespace bcdb

#endif  // BCDB_TESTS_COUNTING_ALLOCATOR_H_
