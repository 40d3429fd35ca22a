# CLI integration script: generate -> legalize (with extensions) ->
# evaluate -> convert across all three formats and re-import. Every step
# must succeed; `violations` may exit 1 (soft violations can remain), so it
# only checks that the command runs and produces output.
file(MAKE_DIRECTORY ${WORKDIR})

function(run_cli)
  execute_process(COMMAND ${CLI} ${ARGV}
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "mclg_cli ${ARGV} failed (${code}):\n${out}\n${err}")
  endif()
endfunction()

run_cli(generate --cells 800 --density 0.55 --seed 17 --gp quadratic
        --out ${WORKDIR}/design.mclg)
run_cli(legalize --in ${WORKDIR}/design.mclg --threads 2 --ripup
        --recover-hpwl --trace-out ${WORKDIR}/trace.json
        --report-out ${WORKDIR}/run.json --out ${WORKDIR}/legal.mclg)
run_cli(evaluate --in ${WORKDIR}/legal.mclg)

# Observability outputs: both files must exist and be well-formed JSON with
# the expected top-level shape. string(JSON) needs CMake >= 3.19; older
# CMakes only check existence.
foreach(obsfile trace.json run.json)
  if(NOT EXISTS ${WORKDIR}/${obsfile})
    message(FATAL_ERROR "legalize did not write ${obsfile}")
  endif()
endforeach()
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  file(READ ${WORKDIR}/trace.json trace_text)
  string(JSON trace_len ERROR_VARIABLE trace_err
         LENGTH "${trace_text}" traceEvents)
  if(trace_err)
    message(FATAL_ERROR "trace.json is not valid trace JSON: ${trace_err}")
  endif()
  # With -DMCLG_TRACING=OFF spans compile out and an empty event list is
  # the correct output; otherwise at least one span must be present.
  if(TRACING AND trace_len LESS 1)
    message(FATAL_ERROR "trace.json contains no trace events")
  endif()

  file(READ ${WORKDIR}/run.json report_text)
  string(JSON schema ERROR_VARIABLE report_err
         GET "${report_text}" schema_version)
  if(report_err)
    message(FATAL_ERROR "run.json is not a valid run report: ${report_err}")
  endif()
  # The one version every writer emits (kRunReportSchemaVersion).
  if(NOT schema EQUAL 8)
    message(FATAL_ERROR "run.json schema_version ${schema}, expected 8")
  endif()
  string(JSON mgl_placed ERROR_VARIABLE report_err
         GET "${report_text}" pipeline mgl placed)
  if(report_err OR mgl_placed LESS 1)
    message(FATAL_ERROR "run.json pipeline.mgl.placed missing or zero")
  endif()
  string(JSON committed ERROR_VARIABLE report_err
         GET "${report_text}" metrics counters mgl.insert.committed)
  if(report_err OR committed LESS 1)
    message(FATAL_ERROR "run.json counters missing mgl.insert.committed")
  endif()
  # --ripup and --recover-hpwl turn on pipeline stages, so the run report
  # records them like any other stage: one clean guarded attempt each.
  foreach(stage ripup recovery)
    string(JSON stage_status ERROR_VARIABLE status_err
           GET "${report_text}" stages ${stage} status)
    string(JSON stage_attempts ERROR_VARIABLE attempts_err
           GET "${report_text}" stages ${stage} attempts)
    if(status_err OR attempts_err OR NOT stage_status STREQUAL "ok"
       OR NOT stage_attempts EQUAL 1)
      message(FATAL_ERROR "run.json stages.${stage}: status "
              "'${stage_status}', attempts '${stage_attempts}'; want ok, 1")
    endif()
  endforeach()
endif()
run_cli(svg --in ${WORKDIR}/legal.mclg --out ${WORKDIR}/legal.svg)

# Incremental ECO mode: re-legalizing the legal result against itself is the
# trivial delta (nothing dirty) and must stay legal; the report carries the
# eco block.
run_cli(legalize --in ${WORKDIR}/legal.mclg --eco-from ${WORKDIR}/legal.mclg
        --report-out ${WORKDIR}/eco.json --out ${WORKDIR}/eco_legal.mclg)
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  file(READ ${WORKDIR}/eco.json eco_text)
  string(JSON eco_dirty ERROR_VARIABLE eco_err
         GET "${eco_text}" eco dirty_cells)
  if(eco_err)
    message(FATAL_ERROR "eco.json has no eco block: ${eco_err}")
  endif()
  if(NOT eco_dirty EQUAL 0)
    message(FATAL_ERROR "self-ECO reported ${eco_dirty} dirty cells")
  endif()
  # An ECO run's pipeline block is the incremental path, as the serve
  # session reports it.
  string(JSON eco_seconds GET "${eco_text}" eco seconds_incremental)
  string(JSON pipeline_seconds GET "${eco_text}" pipeline seconds_total)
  if(NOT pipeline_seconds STREQUAL eco_seconds)
    message(FATAL_ERROR "ECO pipeline.seconds_total ${pipeline_seconds} != "
                        "eco.seconds_incremental ${eco_seconds}")
  endif()
endif()

# violations: exit status reflects whether any exist; just require output.
execute_process(COMMAND ${CLI} violations --in ${WORKDIR}/legal.mclg
                --limit 5
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE vcode OUTPUT_VARIABLE vout)
if(vout STREQUAL "")
  message(FATAL_ERROR "violations produced no output")
endif()

# LEF/DEF round trip.
run_cli(convert --in ${WORKDIR}/legal.mclg --lef ${WORKDIR}/out.lef
        --def ${WORKDIR}/out.def)
run_cli(convert --in-lef ${WORKDIR}/out.lef --in-def ${WORKDIR}/out.def
        --out ${WORKDIR}/from_lefdef.mclg)

# Bookshelf round trip (re-imported design is a GP input; legalize it).
run_cli(convert --in ${WORKDIR}/legal.mclg --bookshelf ${WORKDIR}/bk)
run_cli(convert --in-aux ${WORKDIR}/bk.aux --out ${WORKDIR}/from_bk.mclg)
run_cli(legalize --in ${WORKDIR}/from_bk.mclg --preset totaldisp)

# Exit-code contract (documented in --help).
function(expect_exit expected)
  execute_process(COMMAND ${CLI} ${ARGN}
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL ${expected})
    message(FATAL_ERROR
            "mclg_cli ${ARGN}: expected exit ${expected}, got ${code}:\n"
            "${out}\n${err}")
  endif()
endfunction()

expect_exit(0 --help)
file(WRITE ${WORKDIR}/garbage.mclg "MCLG 1\nDESIGN broken\nCORE nonsense\n")
expect_exit(4 legalize --in ${WORKDIR}/garbage.mclg)
expect_exit(4 evaluate --in ${WORKDIR}/garbage.mclg)
# An injected first-attempt fault must degrade (exit 2), never crash; the
# guard retries and still produces a legal placement.
expect_exit(2 legalize --in ${WORKDIR}/design.mclg --guard-attempts 2
            --fault-seed 1)
