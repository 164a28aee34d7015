# CTest driver (see CMakeLists.txt): runs BENCH --quick --out=OUT, where
# OUT's directory does not exist, and passes only when the bench exits 1
# without printing a row.
execute_process(COMMAND ${BENCH} --quick --out=${OUT}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 1)
  message(FATAL_ERROR "exit status ${code}, want 1\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(out MATCHES "ns/query|wrote ")
  message(FATAL_ERROR "rows printed before the failure:\n${out}")
endif()
if(NOT err MATCHES "cannot open")
  message(FATAL_ERROR "no 'cannot open' message on stderr:\n${err}")
endif()
