# Run CMD (a ;-list) and fail unless it exits 0 and its stdout
# matches the regex EXPECT. A test's PASS_REGULAR_EXPRESSION alone
# would ignore the exit status.
#   cmake -DCMD=<prog;args> -DEXPECT=<regex> -P expect_run.cmake
execute_process(COMMAND ${CMD} RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "'${CMD}' exited ${rc}:\n${out}")
endif()
if(NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "'${CMD}' printed no '${EXPECT}':\n${out}")
endif()
