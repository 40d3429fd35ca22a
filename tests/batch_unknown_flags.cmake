# mclg_batch argument strictness: an unknown flag, or a value flag with no
# value, is a usage error (exit 1) raised before the manifest is read. The
# manifest named here does not exist, so a run that got past flag parsing
# would exit 4 (parse error) instead.
set(missing ${WORKDIR}/no_such_manifest.txt)

function(expect_exit expected)
  execute_process(COMMAND ${BATCH} --manifest ${missing} ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL ${expected})
    message(FATAL_ERROR
            "mclg_batch ${ARGN}: exit ${code}, want ${expected}\n${out}\n${err}")
  endif()
  set(last_stderr "${err}" PARENT_SCOPE)
endfunction()

# Flags of the removed in-process mode and typos of real flags.
expect_exit(1 --process-isolation)
if(NOT last_stderr MATCHES "unknown argument '--process-isolation'")
  message(FATAL_ERROR "no unknown-argument message:\n${last_stderr}")
endif()
expect_exit(1 --executor-threads 2)
expect_exit(1 --jbos 4)
expect_exit(1 --jobs 2 stray)
# A value flag at the end of the line has no value.
expect_exit(1 --jobs)

# Known flags get past parsing and fail on the missing manifest.
expect_exit(4 --jobs 2 --scores --live-status)
