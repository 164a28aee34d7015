# Fails when a file under SRC mentions thread_local: the library keeps no
# hidden per-thread state, and every scratch buffer belongs to an object
# its caller owns (docs/architecture.md). CTest runs it as
# SourceInvariants.NoThreadLocalInSrc.
file(GLOB_RECURSE sources "${SRC}/*")
if(NOT sources)
  message(FATAL_ERROR "no files under ${SRC}")
endif()
set(hits "")
foreach(source IN LISTS sources)
  file(STRINGS "${source}" lines REGEX "thread_local")
  foreach(line IN LISTS lines)
    string(APPEND hits "${source}: ${line}\n")
  endforeach()
endforeach()
if(hits)
  message(FATAL_ERROR "thread_local under ${SRC}:\n${hits}")
endif()
