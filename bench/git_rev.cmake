# Writes ${OUT} as a header defining AVF_GIT_REV from `git describe --always
# --dirty` in ${SOURCE_DIR}.  Run as a build step (cmake -P) so every build,
# not just the configure, stamps the revision its sources came from; the
# header is only replaced when the revision changed, so an unchanged
# revision rebuilds nothing.
execute_process(COMMAND git describe --always --dirty
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE rev
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT rev)
  set(rev "unknown")
endif()
file(WRITE ${OUT}.tmp "#pragma once\n#define AVF_GIT_REV \"${rev}\"\n")
execute_process(COMMAND ${CMAKE_COMMAND} -E copy_if_different ${OUT}.tmp ${OUT})
file(REMOVE ${OUT}.tmp)
