# Argument strictness of mclg_batch, every mclg_cli subcommand and
# mclg_serve: an unknown flag, a value flag with no value, or a malformed
# number is a usage error (exit 1) raised before any input is read. The
# manifest and designs named here do not exist, so a run that got past flag
# parsing would exit 4 (parse error) instead.
set(missing ${WORKDIR}/no_such_manifest.txt)
set(missing_design ${WORKDIR}/no_such_design.mclg)

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
# A fault spec the worker would reject fails before any worker is spawned.
expect_exit(1 --inject-fault a:segv:0)
if(NOT last_stderr MATCHES "invalid fault spec 'a:segv:0'")
  message(FATAL_ERROR "no fault-spec message:\n${last_stderr}")
endif()

# Known flags get past parsing and fail on the missing manifest.
expect_exit(4 --jobs 2 --scores --live-status)

# mclg_cli: typos of real flags, a flag another subcommand reads, a stray
# positional and dangling value flags.
function(expect_cli_exit expected)
  execute_process(COMMAND ${CLI} ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL ${expected})
    message(FATAL_ERROR
            "mclg_cli ${ARGN}: exit ${code}, want ${expected}\n${out}\n${err}")
  endif()
  set(last_stderr "${err}" PARENT_SCOPE)
endfunction()

expect_cli_exit(1 legalize --in ${missing_design} --thread 4)
if(NOT last_stderr MATCHES "unknown argument '--thread'")
  message(FATAL_ERROR "no unknown-argument message:\n${last_stderr}")
endif()
expect_cli_exit(1 legalize --in ${missing_design} --no-gaurd)
# Removed flags are unknown like any typo.
expect_cli_exit(1 legalize --in ${missing_design} --eco-halo 48)
if(NOT last_stderr MATCHES "unknown argument '--eco-halo'")
  message(FATAL_ERROR "no unknown-argument message:\n${last_stderr}")
endif()
expect_cli_exit(1 legalize --in ${missing_design} --threads)
expect_cli_exit(1 evaluate --in ${missing_design} --limit 5)
expect_cli_exit(1 violations --in ${missing_design} stray)
expect_cli_exit(1 generate --cells 100 --density)
expect_cli_exit(1 svg --in)
# Values no run can honour are usage errors too, raised before the design
# is read: an unknown preset, and the full-run --ripup / --recover-hpwl
# stages on an incremental --eco-from run.
expect_cli_exit(1 legalize --in ${missing_design} --preset typo)
if(NOT last_stderr MATCHES "unknown preset 'typo'")
  message(FATAL_ERROR "no unknown-preset message:\n${last_stderr}")
endif()
expect_cli_exit(1 legalize --in ${missing_design} --eco-from ${missing_design}
                --ripup)
expect_cli_exit(1 legalize --in ${missing_design} --eco-from ${missing_design}
                --recover-hpwl)
# Malformed numbers.
expect_cli_exit(1 legalize --in ${missing_design} --delta0 ten)
if(NOT last_stderr MATCHES "invalid value 'ten' for --delta0")
  message(FATAL_ERROR "no invalid-value message:\n${last_stderr}")
endif()
expect_cli_exit(1 generate --cells abc --out ${WORKDIR}/x.mclg)

# Known flags, including --log-json on any subcommand, get past parsing and
# fail on the missing design.
expect_cli_exit(4 legalize --in ${missing_design} --threads 2 --no-guard
                --ripup --ripup-threshold 5 --eco-exact --log-json)
expect_cli_exit(4 svg --in ${missing_design} --out ${WORKDIR}/x.svg --density)

# mclg_serve: a typo, a malformed number and a dangling value flag. With
# stdin at EOF a daemon that got past parsing serves nothing and exits 0.
function(expect_serve_exit expected)
  execute_process(COMMAND ${SERVE} ${ARGN}
                  INPUT_FILE /dev/null
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL ${expected})
    message(FATAL_ERROR
            "mclg_serve ${ARGN}: exit ${code}, want ${expected}\n${out}\n${err}")
  endif()
  set(last_stderr "${err}" PARENT_SCOPE)
endfunction()

expect_serve_exit(1 --stdio --request-budegt 2)
if(NOT last_stderr MATCHES "unknown argument '--request-budegt'")
  message(FATAL_ERROR "no unknown-argument message:\n${last_stderr}")
endif()
expect_serve_exit(1 --stdio --max-inflight abc)
expect_serve_exit(1 --stdio --request-budget)

# Known flags get past parsing.
expect_serve_exit(0 --stdio)
