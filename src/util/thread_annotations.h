#ifndef BCDB_UTIL_THREAD_ANNOTATIONS_H_
#define BCDB_UTIL_THREAD_ANNOTATIONS_H_

/// Clang thread-safety-analysis attribute macros (no-ops elsewhere).
///
/// The concurrency discipline of this codebase is *compiler-enforced*: every
/// lock is a bcdb::Mutex (util/mutex.h) declared as a BCDB_CAPABILITY, every
/// field a lock protects carries BCDB_GUARDED_BY, and every function that
/// expects a lock held carries BCDB_REQUIRES. Under clang, `-Wthread-safety`
/// then rejects unlocked accesses at build time (the CI `clang-threadsafety`
/// job runs it as -Werror); under other compilers the macros vanish and the
/// same source builds unchanged.
///
/// Intentionally lock-free state (atomics with a documented protocol) is
/// tagged BCDB_LOCK_FREE("why") instead — the tag expands to nothing, but
/// tools/bcdb_locklint fails the build when a raw std::atomic member lacks
/// it, so "no annotation" can never silently mean "nobody thought about it".
///
/// Macro reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html

#if defined(__clang__)
#define BCDB_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define BCDB_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op
#endif

/// Declares a class to be a capability (lockable) type.
#define BCDB_CAPABILITY(x) BCDB_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

/// Declares an RAII class whose lifetime equals a capability hold.
#define BCDB_SCOPED_CAPABILITY BCDB_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

/// The field may be read/written only while holding the given capability.
#define BCDB_GUARDED_BY(x) BCDB_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

/// The pointee may be dereferenced only while holding the given capability.
#define BCDB_PT_GUARDED_BY(x) BCDB_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

/// Static acquisition-order edges between capabilities (checked under
/// -Wthread-safety-beta; the runtime LockRank checker in util/mutex.h covers
/// the same hierarchy dynamically).
#define BCDB_ACQUIRED_BEFORE(...) \
  BCDB_THREAD_ANNOTATION_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define BCDB_ACQUIRED_AFTER(...) \
  BCDB_THREAD_ANNOTATION_ATTRIBUTE(acquired_after(__VA_ARGS__))

/// The function may be called only while holding the given capabilities.
#define BCDB_REQUIRES(...) \
  BCDB_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

/// The function acquires/releases the given capabilities.
#define BCDB_ACQUIRE(...) \
  BCDB_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define BCDB_RELEASE(...) \
  BCDB_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))

/// The function may be called only while NOT holding the capabilities
/// (deadlock guard for functions that acquire them internally).
#define BCDB_EXCLUDES(...) \
  BCDB_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (Mutex::AssertHeld).
#define BCDB_ASSERT_CAPABILITY(x) \
  BCDB_THREAD_ANNOTATION_ATTRIBUTE(assert_capability(x))

/// The function returns a reference to the given capability.
#define BCDB_RETURN_CAPABILITY(x) \
  BCDB_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

/// Escape hatch: the function body is exempt from analysis. Every use must
/// explain why in a comment.
#define BCDB_NO_THREAD_SAFETY_ANALYSIS \
  BCDB_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

/// Tags a std::atomic (or other deliberately unguarded) declaration as an
/// intentional lock-free protocol. Expands to nothing; the string argument
/// is the one-line protocol rationale, kept next to the declaration.
/// tools/bcdb_locklint requires this tag on every raw std::atomic declared
/// outside util/mutex.h — an untagged atomic fails the lint CI job.
#define BCDB_LOCK_FREE(...)

#endif  // BCDB_UTIL_THREAD_ANNOTATIONS_H_
