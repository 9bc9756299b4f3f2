# Identity-corpus gate, run by the corpus_dump_md5 ctest entry
# (tests/CMakeLists.txt): writes the bench_corpus_dump corpus and fails
# unless its MD5 (the digest `cmake -E md5sum` prints) equals the committed
# value.
#
# Usage: cmake -DDUMP=<bench_corpus_dump> -DOUT=<file> -DEXPECTED_MD5=<hex>
#              -P check_corpus_dump.cmake
foreach(var DUMP OUT EXPECTED_MD5)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_corpus_dump.cmake: -D${var}= is required")
  endif()
endforeach()

execute_process(COMMAND "${DUMP}" --out "${OUT}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_corpus_dump failed (${rc})")
endif()

file(MD5 "${OUT}" actual)
if(NOT actual STREQUAL EXPECTED_MD5)
  message(FATAL_ERROR
    "corpus dump ${OUT} has MD5 ${actual}, expected ${EXPECTED_MD5}. "
    "A change that moves it must show why (docs/BENCHMARKS.md, "
    "\"Identity corpus\") and update MOCHE_CORPUS_DUMP_MD5.")
endif()
message(STATUS "corpus dump MD5 ${actual} matches")
