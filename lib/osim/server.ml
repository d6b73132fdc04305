(** The serving harness: runs a process as a network server, taking
    periodic lightweight checkpoints while it works.

    The checkpoint interval is expressed in simulated milliseconds; the
    simulation maps one millisecond to {!instrs_per_ms} dynamic
    instructions, so "checkpoint every 200 ms" means "every million
    instructions of progress". Wall-clock overhead measurements (Figure 4)
    time the OCaml harness itself, where the checkpoint cost is the real
    COW bookkeeping of {!Vm.Memory}. *)

let instrs_per_ms = 5_000

type config = {
  checkpoint_interval_ms : int;  (** 0 disables checkpointing *)
  keep_checkpoints : int;
}

let default_config = { checkpoint_interval_ms = 200; keep_checkpoints = 20 }

type status =
  | Idle        (** blocked waiting for input *)
  | Stopped     (** process exited or was halted *)
  | Crashed of Vm.Event.fault
  | Infected of string  (** exploit reached [system]; payload command *)

type t = {
  id : int;  (** process/host id; trace spans use it as their pid *)
  proc : Process.t;
  ring : Checkpoint.ring;
  origin : Checkpoint.t;
      (** the initial checkpoint from [create]; survives ring overwrites
          and purges as the rollback point of last resort *)
  config : config;
  mutable next_ck_at : int;  (** icount threshold for the next checkpoint *)
  ck_counter : Obs.Metrics.counter;
      (** checkpoints taken — the single source of truth; registered in a
          metrics registry when the caller provides one *)
}

(* Atomic so server creation is safe from any domain (sharded runs create
   hosts on the coordinating domain today, but nothing should depend on
   that). Ids remain globally unique, not per-shard dense. *)
let next_id = Atomic.make 0
let interval_instrs config = config.checkpoint_interval_ms * instrs_per_ms

(** The server's virtual clock: simulated milliseconds of progress. *)
let vtime_ms t =
  float_of_int t.proc.Process.cpu.Vm.Cpu.icount /. float_of_int instrs_per_ms

let checkpoints_taken t = Obs.Metrics.counter_value t.ck_counter

(** Register this server's observability surface in [registry]: the
    checkpoint counter plus pull-gauges over the ring, the network log,
    and the VM's fast/slow-path, TLB, and COW counters. Gauge closures
    retain the process, so use a per-run registry (not the global default)
    when servers come and go. *)
let register_metrics t registry =
  let labels = [ ("server", string_of_int t.id) ] in
  let gauge name help f =
    Obs.Metrics.gauge_fn ~registry ~help ~labels name (fun () ->
        float_of_int (f ()))
  in
  Obs.Metrics.attach_counter ~registry ~labels
    ~help:"checkpoints taken (including the origin)" "sweeper_checkpoints_total"
    t.ck_counter;
  gauge "sweeper_checkpoint_ring_occupancy" "checkpoints currently retained"
    (fun () -> Checkpoint.count t.ring);
  gauge "sweeper_checkpoint_purges" "checkpoints dropped by recovery purges"
    (fun () -> Checkpoint.purge_count t.ring);
  gauge "sweeper_netlog_drops" "messages dropped by input filters" (fun () ->
      Netlog.dropped_count t.proc.Process.net);
  gauge "sweeper_netlog_quarantined" "messages excluded from replay"
    (fun () -> Netlog.quarantined_count t.proc.Process.net);
  gauge "sweeper_netlog_filters" "input filters installed" (fun () ->
      Netlog.filter_count t.proc.Process.net);
  gauge "sweeper_netlog_messages" "messages logged" (fun () ->
      Netlog.message_count t.proc.Process.net);
  let cpu = t.proc.Process.cpu in
  gauge "sweeper_vm_fast_instructions"
    "instructions retired on the uninstrumented fast path" (fun () ->
      cpu.Vm.Cpu.fast_retired);
  gauge "sweeper_vm_slow_instructions"
    "instructions retired on the instrumented path" (fun () ->
      cpu.Vm.Cpu.slow_retired);
  gauge "sweeper_vm_block_instructions"
    "instructions retired inside block superinstructions" (fun () ->
      cpu.Vm.Cpu.block_retired);
  gauge "sweeper_vm_blocks_compiled"
    "tier-3 basic blocks installed (compiled once per template, shared by \
     its instances)"
    (fun () -> Vm.Cpu.block_count cpu);
  gauge "sweeper_vm_faults" "machine faults surfaced" (fun () ->
      cpu.Vm.Cpu.fault_count);
  let mem = t.proc.Process.mem in
  gauge "sweeper_vm_tlb_read_misses" "read-TLB refills" (fun () ->
      let r, _, _ = Vm.Memory.tlb_stats mem in
      r);
  gauge "sweeper_vm_tlb_write_misses" "write-TLB refills" (fun () ->
      let _, w, _ = Vm.Memory.tlb_stats mem in
      w);
  gauge "sweeper_vm_tlb_invalidations" "TLB invalidations" (fun () ->
      let _, _, i = Vm.Memory.tlb_stats mem in
      i);
  gauge "sweeper_vm_cow_copies" "pages copied for snapshot sharing"
    (fun () -> fst (Vm.Memory.stats mem));
  gauge "sweeper_vm_pages_mapped" "pages ever materialized" (fun () ->
      snd (Vm.Memory.stats mem))

let create ?(config = default_config) ?metrics proc =
  let ring = Checkpoint.create_ring ~capacity:config.keep_checkpoints () in
  (* An initial checkpoint so there is always a rollback point. *)
  let origin = Checkpoint.take proc in
  Checkpoint.add ring origin;
  let id = 1 + Atomic.fetch_and_add next_id 1 in
  let ck_counter = Obs.Metrics.make_counter () in
  Obs.Metrics.inc ck_counter;
  let t =
    {
      id;
      proc;
      ring;
      origin;
      config;
      next_ck_at =
        (if config.checkpoint_interval_ms = 0 then max_int
         else proc.Process.cpu.Vm.Cpu.icount + interval_instrs config);
      ck_counter;
    }
  in
  (match metrics with Some registry -> register_metrics t registry | None -> ());
  t

let take_checkpoint t =
  let vts = vtime_ms t in
  let sp =
    Obs.Trace.begin_span ~cat:"checkpoint" ~pid:t.id ~vts_ms:vts "checkpoint"
  in
  Checkpoint.add t.ring (Checkpoint.take t.proc);
  Obs.Metrics.inc t.ck_counter;
  Obs.Trace.end_span ~vts_ms:vts sp;
  if t.config.checkpoint_interval_ms > 0 then
    t.next_ck_at <- t.proc.Process.cpu.Vm.Cpu.icount + interval_instrs t.config

type step_end = Yielded | Ended of status

(** Advance the server by at most [fuel] instructions. Checkpoints land at
    the same icount thresholds as an unbounded {!run}, because each inner
    slice is clamped to the next checkpoint boundary — so slicing the
    execution (as the cooperative scheduler does) cannot change the ring
    contents, and the analysis pipeline sees identical rollback points. *)
let step ~fuel t =
  let cpu = t.proc.Process.cpu in
  let stop = cpu.Vm.Cpu.icount + max 0 fuel in
  let rec go () =
    if t.proc.Process.compromised <> None then
      Ended (Infected (Option.get t.proc.Process.compromised))
    else if cpu.Vm.Cpu.halted then Ended Stopped
    else if cpu.Vm.Cpu.icount >= stop then Yielded
    else begin
      let slice =
        min (stop - cpu.Vm.Cpu.icount) (max 1 (t.next_ck_at - cpu.Vm.Cpu.icount))
      in
      match Vm.Cpu.run ~fuel:slice cpu with
      | Vm.Cpu.Out_of_fuel ->
        if cpu.Vm.Cpu.icount >= t.next_ck_at then take_checkpoint t;
        go ()
      | Vm.Cpu.Blocked ->
        Ended
          (match t.proc.Process.compromised with
          | Some cmd -> Infected cmd
          | None -> Idle)
      | Vm.Cpu.Halted ->
        Ended
          (match t.proc.Process.compromised with
          | Some cmd -> Infected cmd
          | None -> Stopped)
      | Vm.Cpu.Faulted f -> Ended (Crashed f)
    end
  in
  go ()

(** Advance the server until it needs input, stops, crashes, or is
    compromised — taking checkpoints on schedule as it runs. *)
let run t =
  (* Bounded slices (not [max_int]: [step] adds fuel to icount). *)
  let rec go () =
    match step ~fuel:1_000_000_000 t with
    | Yielded -> go ()
    | Ended s -> s
  in
  go ()

(** Deliver a message and run the server on it. [src]/[seq] stamp the
    sender's provenance; arrival time is the server's own virtual clock. *)
let handle ?src ?seq t payload =
  match Process.send_message ?src ?seq ~vtime:(vtime_ms t) t.proc payload with
  | Error filter -> `Filtered filter
  | Ok id -> (
    match run t with
    | Idle -> `Served id
    | Stopped -> `Stopped
    | Crashed f -> `Crashed (id, f)
    | Infected cmd -> `Infected (id, cmd))
