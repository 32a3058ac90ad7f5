# Runs one `autopn` command line and checks what it printed and returned.
#
#   cmake -DBIN=<autopn> "-DARGS=<arguments, space-separated>"
#         [-DGOLDEN=<dir>/<name>]    stdout must equal <name>.stdout byte for
#                                    byte, and the exit code <name>.exit
#         [-DEXIT=<code>]            expected exit code (without GOLDEN)
#         [-DSTDOUT_REGEX=<re>] [-DSTDERR_REGEX=<re>]
#         -P cli_check.cmake
cmake_minimum_required(VERSION 3.16)

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code)
if(DEFINED GOLDEN)
  file(READ "${GOLDEN}.stdout" want)
  file(READ "${GOLDEN}.exit" EXIT)
  string(STRIP "${EXIT}" EXIT)
  if(NOT "${out}" STREQUAL "${want}")
    message(FATAL_ERROR "stdout differs from ${GOLDEN}.stdout; got:\n${out}")
  endif()
endif()
if(NOT "${code}" STREQUAL "${EXIT}")
  message(FATAL_ERROR "exit ${code}, want ${EXIT}\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED STDOUT_REGEX AND NOT "${out}" MATCHES "${STDOUT_REGEX}")
  message(FATAL_ERROR "stdout does not match '${STDOUT_REGEX}':\n${out}")
endif()
if(DEFINED STDERR_REGEX AND NOT "${err}" MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "stderr does not match '${STDERR_REGEX}':\n${err}")
endif()
