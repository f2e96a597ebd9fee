# Golden diagnostics: runs bcdb_lint over one example constraint file and
# compares its stdout byte for byte with tests/golden/<NAME>.<txt|json>.
# tests/CMakeLists.txt registers one ctest per file and format:
#
#   cmake -DLINT=<bcdb_lint> -DSOURCE_DIR=<repo root> -DSCHEMA=<schema arg>
#         -DNAME=<bad|marketplace|templates|bitcoin> -DFORMAT=<text|json>
#         -P tests/golden/check_lint.cmake
#
# After an intended change, regenerate a golden from the repository root:
#   build/tools/bcdb_lint --schema=... --format=... examples/constraints/X.dc
#       > tests/golden/X.txt
# The exit status is not compared: bad.dc exits non-zero by design.
if(FORMAT STREQUAL "json")
  set(extension json)
else()
  set(extension txt)
endif()
execute_process(
  COMMAND ${LINT} --schema=${SCHEMA} --format=${FORMAT}
          examples/constraints/${NAME}.dc
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE actual
  ERROR_QUIET)
file(READ ${SOURCE_DIR}/tests/golden/${NAME}.${extension} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "bcdb_lint output for ${NAME}.dc (${FORMAT}) differs "
                      "from tests/golden/${NAME}.${extension}; got:\n${actual}")
endif()
