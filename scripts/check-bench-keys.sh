#!/bin/sh
# Committed benchmark record schema checks: BENCH_vm.json must carry
# every key the docs and the roadmap quote, including the tier-3 keys
# (ns_per_instr_block_compiled and the tier_counters audit objects whose
# block/fast/slow counts must sum to executed), and BENCH_pipeline.json
# must carry the scheduler-scaling rows plus the domain-sharded and
# forensics sections, with the at-scale host-creation cost under its
# bound.
# Catches a bench writer that silently drops a key (the
# merge-don't-clobber writer makes that easy to miss) and a hand-edited
# file that loses a section. Run from the repository root (or a sandbox
# copy of it).
set -e
status=0
file=BENCH_vm.json
if [ ! -f "$file" ]; then
  echo "check-bench-keys: $file missing (run: dune exec bench/main.exe -- micro --json)"
  exit 1
fi
require() {
  if ! grep -q "\"$1\"" "$file"; then
    echo "check-bench-keys: $file lacks key \"$1\""
    status=1
  fi
}
# Interpreter tiers.
require ns_per_instr_uninstrumented
require ns_per_instr_block_compiled
require block_compiled_speedup_x
require ns_per_instr_one_pc_hook
require ns_per_instr_global_taint_hook
require one_pc_hook_overhead_pct
require global_hook_slowdown_x
# Observability.
require ns_per_instr_obs_enabled
require obs_enabled_overhead_pct
require ns_per_instr_flight_recorder
require flight_recorder_slowdown_x
# Tier-counter audit: the named configs.
require tier_counters
for config in hooked obs_on flight_recorder; do
  require "$config"
done
require block
require fast
require slow
require executed
# Analysis replays.
require ns_per_instr_taint_analysis
require ns_per_instr_taint_oracle
require taint_speedup_x
require ns_per_instr_slice_analysis
require ns_per_instr_membug_analysis
# Checkpointing.
require pages_copied_per_checkpoint
require checkpoints
# Interval abstract interpretation: elision ns/instr plus per-app
# partition rows.
require absint
require ns_per_instr_block_guarded
require ns_per_instr_block_elided
require elision_speedup_x
for app in apache1 apache2 cvs squid; do
  require "$app"
done
require analysis_ms
require accesses
require proven
require possible
require oob
require unreachable
require proven_pct
# Table 3 stage timings.
require table3_stage_ms
require time_to_first_vsef

# ------------------------------------------------------------------
# BENCH_pipeline.json: scheduler scaling + the domain-sharded section.
# ------------------------------------------------------------------
file=BENCH_pipeline.json
if [ ! -f "$file" ]; then
  echo "check-bench-keys: $file missing (run: dune exec bench/main.exe -- pipeline --json)"
  exit 1
fi
# Scheduler-scaling rows.
require quantum_instrs
require scales
require hosts
require messages
require create_s
require run_s
require virtual_ms
require hosts_per_s
require instrs_per_s
require first_antibody_ms
require spans_per_s
# The domain-sharded community section.
require sharded
require cores
require seed
require single_domain
require domain_scaling
require speedup_vs_1_domain
require at_scale
require oracle
require probed
require domains
require shards
require windows
require exchanged
require first_antibody_vtime_ms
require domains_checked
require matches
# The forensics section: synthetic reconstruction-throughput rows plus
# the netlog-vs-ground-truth oracle row.
require forensics
require synthetic
require edges
require blocked
require reconstruct_s
require edges_per_s
require max_depth
# Both oracles (sharded determinism, forensic reconstruction) must have
# held when the record was written, and the at-scale row must really be
# at scale.
if [ "$(grep -c '"matches": true' "$file")" -lt 2 ]; then
  echo "check-bench-keys: $file sharded/forensics oracles did not both hold (need two \"matches\": true)"
  status=1
fi
if ! grep -A2 '"at_scale"' "$file" | grep -qE '"hosts": [0-9]{6,}'; then
  echo "check-bench-keys: $file at_scale row is below 10^5 hosts"
  status=1
fi
# Value bound: host creation stays cheap per host at scale. The at-scale
# row's create_s / hosts must not exceed 0.5 ms. Template instances share
# the template's compiled blocks; recompiling them per host would cost
# about 4 ms each at 10^5 hosts.
at_scale=$(grep '"at_scale"' "$file" || true)
hosts=$(printf '%s\n' "$at_scale" | sed -n 's/.*"hosts": \([0-9]*\).*/\1/p')
create_s=$(printf '%s\n' "$at_scale" | sed -n 's/.*"create_s": \([0-9.]*\).*/\1/p')
if ! awk -v c="${create_s:-x}" -v h="${hosts:-0}" \
  'BEGIN { exit !(h > 0 && c ~ /^[0-9.]+$/ && c * 1000 / h <= 0.5) }'; then
  echo "check-bench-keys: $file at_scale create_s / hosts exceeds 0.5 ms (create_s=${create_s:-?}, hosts=${hosts:-?})"
  status=1
fi

if [ $status -eq 0 ]; then
  echo "check-bench-keys: BENCH_vm.json and BENCH_pipeline.json carry the expected key schemas and the host-creation bound"
fi
exit $status
