# A guarded `mclg_cli legalize` evaluates Eq. 10 once per placement: its
# summary line and run report reuse the last stage audit's evaluation, so a
# default run makes exactly one full score evaluation per audit
# (`eval.score_evaluations` equals `guard.score_evaluations` in the run
# report), and the summary line equals `evaluate` on the written output.
# --fillers changes the placement after the last audit, which costs one
# more evaluation.
file(MAKE_DIRECTORY ${WORKDIR})

function(run_cli out_var)
  execute_process(COMMAND ${CLI} ${ARGN}
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "mclg_cli ${ARGN} failed (${code}):\n${out}\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# The line `summarize` prints: "<design>: LEGAL avgDisp=... score=...".
function(summary_line text out_var)
  string(REGEX MATCH "[^\n]*: (LEGAL|ILLEGAL) avgDisp=[^\n]*" line "${text}")
  if(line STREQUAL "")
    message(FATAL_ERROR "no summary line in:\n${text}")
  endif()
  set(${out_var} "${line}" PARENT_SCOPE)
endfunction()

function(counter report name out_var)
  string(JSON value ERROR_VARIABLE err GET "${report}" metrics counters
         ${name})
  if(err)
    set(value 0)
  endif()
  set(${out_var} ${value} PARENT_SCOPE)
endfunction()

# extra: evaluations beyond one per audit; ARGN: extra legalize flags.
function(expect_evaluations extra)
  run_cli(legal_out legalize --in design.mclg --out legal.mclg
          --report-out run.json ${ARGN})
  file(READ ${WORKDIR}/run.json report)
  counter("${report}" eval.score_evaluations evaluations)
  counter("${report}" guard.score_evaluations audits)
  math(EXPR want "${audits} + ${extra}")
  if(audits LESS 3 OR NOT evaluations EQUAL want)
    message(FATAL_ERROR "legalize ${ARGN}: ${evaluations} score evaluations "
            "for ${audits} audits; want ${want} (and at least 3 audits)")
  endif()
  run_cli(eval_out evaluate --in legal.mclg)
  summary_line("${legal_out}" legal_line)
  summary_line("${eval_out}" eval_line)
  if(NOT legal_line STREQUAL eval_line)
    message(FATAL_ERROR "legalize ${ARGN} summary '${legal_line}' differs "
            "from evaluate on its output '${eval_line}'")
  endif()
endfunction()

run_cli(gen_out generate --cells 600 --density 0.6 --seed 5 --fences 1
        --out design.mclg)
expect_evaluations(0)
expect_evaluations(1 --fillers)
