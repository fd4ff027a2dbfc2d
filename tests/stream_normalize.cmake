# The stream goldens pin what the simulated system did, not how much host
# work the simulator spent on it. strip_sim_series(<var>) drops the
# kernel's self-instrumentation (every `sim/...` series: events executed,
# event-queue and fiber traffic) from each window of a telemetry stream
# held in <var>, so a kernel change that reaches the same virtual time in
# fewer events keeps the pins. Series are flat {"value","delta"} objects,
# so one regex per position in the series map removes them.
function(strip_sim_series var)
  set(entry "\"sim/[^\"]*\":{[^}]*}")
  string(REGEX REPLACE "${entry}," "" s "${${var}}")
  string(REGEX REPLACE ",${entry}" "" s "${s}")
  string(REGEX REPLACE "${entry}" "" s "${s}")
  set(${var} "${s}" PARENT_SCOPE)
endfunction()
