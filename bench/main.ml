(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Sections 5 and 6), plus the ablations called out in
   DESIGN.md and a set of Bechamel microbenchmarks of the primitives.

   Run with `dune exec bench/main.exe` (all sections) or pass section names
   (table1 table2 table3 fig4 fig5 fig6 fig7 fig8 vsef ablations micro). *)

(* Smoke mode (`bench smoke`, wired into `dune runtest`): every section
   with tiny parameters, so the whole harness is exercised in seconds.
   [sc full small] picks the smoke-scaled value. *)
let smoke = ref false
let sc full small = if !smoke then small else full

(* `--json`: dump machine-readable results (BENCH_vm.json, BENCH_pipeline.json). *)
let json_output = ref false

(* `bench ... --seed N` (or env BENCH_SEED; the flag wins): offset added
   to every workload-generation seed, pinning the whole harness for
   reproducible A/B runs — the same N replays the same layouts and
   request streams, different N's give independent workload draws. The
   default offset 0 reproduces the historical hard-coded seeds, so
   golden outputs (Table 2/3) are unchanged unless a seed is asked for.
   Mirrors the QCHECK_SEED plumbing in the test suites. *)
let bench_seed =
  ref
    (match Sys.getenv_opt "BENCH_SEED" with
    | Some s -> ( try int_of_string (String.trim s) with _ -> 0)
    | None -> 0)

let bseed base = base + !bench_seed

let section_header name =
  Printf.printf "\n=====================================================\n";
  Printf.printf "== %s\n" name;
  Printf.printf "=====================================================\n"

let apps = [ "apache1"; "apache2"; "cvs"; "squid" ]

(* ------------------------------------------------------------------ *)
(* Table 1: list of tested exploits                                    *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section_header "Table 1: List of tested exploits";
  Printf.printf "%-8s | %-14s | %-22s | %-13s | %-20s\n" "Name" "Program"
    "Description" "CVE ID" "Bug Type";
  Printf.printf "%s\n" (String.make 90 '-');
  List.iter
    (fun key ->
      let e = Apps.Registry.find key in
      Printf.printf "%-8s | %-14s | %-22s | %-13s | %-20s\n" e.r_name
        e.r_program e.r_description e.r_cve e.r_bug_type)
    apps

(* ------------------------------------------------------------------ *)
(* Tables 2 and 3: full defense pipeline per exploit                   *)
(* ------------------------------------------------------------------ *)

(* Run one complete attack/defense cycle against [key]; returns the
   analysis report and the protected server (post-recovery). *)
let attack_and_analyze ?benign ?(seed = 42) key =
  let benign = match benign with Some n -> n | None -> sc 20 5 in
  let entry = Apps.Registry.find key in
  let proc = Osim.Process.load ~aslr:true ~seed:(bseed seed) (entry.r_compile ()) in
  let server = Osim.Server.create proc in
  ignore (Osim.Server.run server);
  List.iter
    (fun m -> ignore (Osim.Server.handle server m))
    (Apps.Registry.workload ~seed:(bseed 7) key benign);
  let exploit = Apps.Registry.exploit ~system_guess:0x12345678 ~cmd_ptr:0 key in
  let report = ref None in
  List.iter
    (fun m ->
      match Sweeper.Orchestrator.protected_handle ~app:key server m with
      | `Attack r -> report := Some r
      | `Served _ | `Filtered _ | `Blocked_by_vsef _ | `Stopped | `Compromised
        -> ())
    exploit.Apps.Exploits.x_messages;
  match !report with
  | Some r -> (r, server, proc)
  | None -> failwith (key ^ ": exploit did not trigger the defense")

let table2 () =
  section_header "Table 2: Overall Sweeper results";
  List.iter
    (fun key ->
      let r, _server, proc = attack_and_analyze key in
      Sweeper.Report.print_table2 proc r;
      print_newline ())
    apps

let table3 () =
  section_header "Table 3: Sweeper failure analysis time";
  Sweeper.Report.print_table3_header ();
  List.iter
    (fun key ->
      let r, _, _ = attack_and_analyze key in
      Sweeper.Report.print_table3_row r)
    apps;
  Printf.printf
    "(wall-clock of this harness; core-dump << the replay stages and \
     first-VSEF << total are the reproduced shape; slicing leads, but by \
     less than in the paper, since every replay stage is fused — see \
     EXPERIMENTS.md)\n"

(* ------------------------------------------------------------------ *)
(* Figure 4: normal-execution overhead vs checkpoint interval          *)
(* ------------------------------------------------------------------ *)

let run_workload ?(config = Osim.Server.default_config) key n_requests seed =
  let seed = bseed seed in
  let entry = Apps.Registry.find key in
  let proc = Osim.Process.load ~aslr:true ~seed (entry.r_compile ()) in
  let server = Osim.Server.create ~config proc in
  ignore (Osim.Server.run server);
  let reqs = Apps.Registry.workload ~seed key n_requests in
  Gc.major ();
  let t0 = Unix.gettimeofday () in
  List.iter (fun m -> ignore (Osim.Server.handle server m)) reqs;
  let dt = Unix.gettimeofday () -. t0 in
  let cow, mapped = Vm.Memory.stats proc.Osim.Process.mem in
  (dt, Osim.Server.checkpoints_taken server, cow, mapped, proc)

let median l =
  let a = List.sort compare l in
  List.nth a (List.length a / 2)

let fig4 () =
  section_header
    "Figure 4: Performance at varying checkpoint intervals (Squid workload)";
  let n = sc 1500 60 in
  let trials = sc 7 1 in
  let measure config =
    let times = ref [] in
    let last = ref None in
    for i = 1 to trials do
      let dt, cks, cow, mapped, _ = run_workload ~config "squid" n (100 + i) in
      times := dt :: !times;
      last := Some (cks, cow, mapped)
    done;
    let cks, cow, mapped = Option.get !last in
    (median !times, cks, cow, mapped)
  in
  (* Warm up code paths and the allocator before any timed run. *)
  ignore (run_workload "squid" (sc 200 40) 1);
  let base_time, _, _, _ =
    measure { Osim.Server.checkpoint_interval_ms = 0; keep_checkpoints = 20 }
  in
  Printf.printf "baseline (no checkpoints): %.3f s for %d requests\n\n"
    base_time n;
  Printf.printf "%-14s %12s %12s %12s %14s %16s\n" "interval(ms)" "time(s)"
    "overhead(%)" "checkpoints" "cow-copies" "work-overhead(%)";
  List.iter
    (fun interval ->
      let t, cks, cow, _ =
        measure
          { Osim.Server.checkpoint_interval_ms = interval; keep_checkpoints = 20 }
      in
      (* The deterministic cost model: each checkpoint copies the page
         table (O(mapped pages)), each COW fault copies one 4 KiB page.
         Expressed relative to the instructions executed, this is the
         noise-free counterpart of the wall-clock column. *)
      let page_copy_cost = 1.0 and table_cost = 2.0 in
      let work =
        (float_of_int cks *. table_cost) +. (float_of_int cow *. page_copy_cost)
      in
      let total_work = float_of_int (n * 4000) /. 1000. in
      Printf.printf "%-14d %12.3f %12.2f %12d %14d %16.3f\n" interval t
        ((t /. base_time -. 1.) *. 100.)
        cks cow
        (work /. total_work *. 100.))
    [ 20; 30; 40; 60; 80; 100; 140; 200 ];
  Printf.printf
    "(paper: ~5%% at 30 ms falling to ~0.9%% at 200 ms; the reproduced shape \
     is monotone-decreasing overhead with interval — the deterministic \
     work-overhead column shows it without harness noise)\n"

(* ------------------------------------------------------------------ *)
(* Figure 5: throughput during a single attack + recovery              *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  section_header "Figure 5: Throughput during a single attack against Squid";
  let key = "squid" in
  let entry = Apps.Registry.find key in
  let proc = Osim.Process.load ~aslr:true ~seed:7 (entry.r_compile ()) in
  let server = Osim.Server.create proc in
  ignore (Osim.Server.run server);
  (* Timeline in wall-clock buckets: serve benign traffic, fire the exploit
     mid-stream, keep serving. *)
  let bucket_ms = 50. in
  let buckets : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let t_start = Unix.gettimeofday () in
  let mark () =
    let b = int_of_float ((Unix.gettimeofday () -. t_start) *. 1000. /. bucket_ms) in
    Hashtbl.replace buckets b (1 + Option.value ~default:0 (Hashtbl.find_opt buckets b))
  in
  let benign = Apps.Registry.workload ~seed:3 key (sc 3000 300) in
  let exploit = Apps.Registry.exploit key in
  let attack_at = sc 1500 150 in
  let attack_bucket = ref 0 in
  let recovery_ms = ref 0. in
  List.iteri
    (fun i m ->
      if i = attack_at then begin
        attack_bucket :=
          int_of_float ((Unix.gettimeofday () -. t_start) *. 1000. /. bucket_ms);
        let t0 = Unix.gettimeofday () in
        List.iter
          (fun xm ->
            ignore (Sweeper.Orchestrator.protected_handle ~app:key server xm))
          exploit.Apps.Exploits.x_messages;
        recovery_ms := (Unix.gettimeofday () -. t0) *. 1000.
      end;
      match Osim.Server.handle server m with
      | `Served _ -> mark ()
      | _ -> ())
    benign;
  let max_bucket =
    Hashtbl.fold (fun b _ acc -> max b acc) buckets 0
  in
  Printf.printf "time(ms)  served-requests-per-%.0fms\n" bucket_ms;
  for b = 0 to max_bucket do
    let v = Option.value ~default:0 (Hashtbl.find_opt buckets b) in
    let bar = String.make (min 60 v) '#' in
    Printf.printf "%8.0f  %4d %s%s\n"
      (float_of_int b *. bucket_ms)
      v bar
      (if b = !attack_bucket then "   <-- attack detected here" else "")
  done;
  Printf.printf
    "\nanalysis+antibody+recovery stall: %.1f ms (service then resumes; a \
     restart would also lose all in-memory state)\n"
    !recovery_ms

(* ------------------------------------------------------------------ *)
(* Section 5.3: VSEF overhead                                          *)
(* ------------------------------------------------------------------ *)

let vsef_overhead () =
  section_header "Section 5.3: Vulnerability monitoring (VSEF) overhead";
  let n = sc 1500 100 in
  let trials = sc 5 1 in
  let measure key prepare =
    let times = ref [] in
    let hooks = ref 0 in
    for t = 1 to trials do
      let entry = Apps.Registry.find key in
      let proc = Osim.Process.load ~aslr:true ~seed:5 (entry.r_compile ()) in
      let server = Osim.Server.create proc in
      ignore (Osim.Server.run server);
      hooks := prepare proc;
      let reqs = Apps.Registry.workload ~seed:(6 + t) key n in
      Gc.major ();
      let t0 = Unix.gettimeofday () in
      List.iter (fun m -> ignore (Osim.Server.handle server m)) reqs;
      times := (Unix.gettimeofday () -. t0) :: !times
    done;
    (median !times, !hooks)
  in
  let install_tier vsefs proc =
    let installs = List.map (Sweeper.Vsef.install proc) vsefs in
    List.fold_left (fun acc i -> acc + Sweeper.Vsef.footprint i) 0 installs
  in
  let report key =
    let r, _, _ = attack_and_analyze key in
    let all = r.Sweeper.Orchestrator.a_vsefs in
    let non_taint =
      List.filter
        (fun v ->
          match v.Sweeper.Vsef.v_check with
          | Sweeper.Vsef.Taint_filter _ -> false
          | _ -> true)
        all
    in
    let base, _ = measure key (fun _ -> 0) in
    let t_check, h_check = measure key (install_tier non_taint) in
    let t_all, h_all = measure key (install_tier all) in
    Printf.printf "%-8s baseline %.3f s over %d requests\n" key base n;
    Printf.printf
      "  memory-check VSEFs only : %.3f s -> %+6.2f%%  (%d hooked locations) \
       <- the paper's configuration\n"
      t_check
      ((t_check /. base -. 1.) *. 100.)
      h_check;
    Printf.printf
      "  + taint-filter VSEF     : %.3f s -> %+6.2f%%  (%d hooked locations)\n"
      t_all
      ((t_all /. base -. 1.) *. 100.)
      h_all
  in
  report "squid";
  report "apache1";
  Printf.printf
    "(paper: 0.93%% throughput drop for the Squid heap-bounds VSEF; our \
     interpreter amplifies per-hook cost, the hooked-locations column is the \
     architectural quantity)\n"

(* ------------------------------------------------------------------ *)
(* Figures 6-8: community defense                                      *)
(* ------------------------------------------------------------------ *)

let print_figure (fig : Epidemic.Community.figure) note =
  Printf.printf "beta = %g, rho = %g\n" fig.f_beta fig.f_rho;
  Printf.printf "%-12s" "alpha:";
  (match fig.f_series with
  | s :: _ -> List.iter (fun (a, _) -> Printf.printf "%10.4g" a) s.s_points
  | [] -> ());
  print_newline ();
  List.iter
    (fun (s : Epidemic.Community.series) ->
      Printf.printf "gamma=%-6g" s.s_gamma;
      List.iter (fun (_, r) -> Printf.printf "%10.4f" r) s.s_points;
      print_newline ())
    fig.f_series;
  Printf.printf "%s\n" note

let fig6 () =
  section_header "Figure 6: Sweeper defense against Slammer (beta=0.1)";
  print_figure (Epidemic.Community.figure6 ())
    "(paper: alpha=0.0001, gamma=5 -> ~15%; alpha=0.001, gamma=20 -> ~5%)"

let fig7 () =
  section_header
    "Figure 7: Sweeper + proactive protection vs hit-list worm (beta=1000)";
  print_figure (Epidemic.Community.figure7 ())
    "(paper: gamma=50 much worse than gamma=30)"

let fig8 () =
  section_header
    "Figure 8: Sweeper + proactive protection vs hit-list worm (beta=4000)";
  print_figure (Epidemic.Community.figure8 ())
    "(paper: gamma=20 much worse than gamma=10; gamma=5 negligible)"

let hitlist_response () =
  section_header "Section 6.3: end-to-end response time against hit-list worms";
  List.iter
    (fun (beta, ratio, contained) ->
      Printf.printf
        "beta=%-6g gamma=5s (2s analysis + 3s dissemination): infection ratio \
         %.4f -> %s\n"
        beta ratio
        (if contained then "contained" else "NOT contained"))
    (Epidemic.Community.hitlist_response_summary ());
  Printf.printf "\nODE vs stochastic cross-validation (beta=1000, rho=2^-12):\n";
  List.iter
    (fun (alpha, gamma, ode, sim) ->
      Printf.printf "  alpha=%-8g gamma=%-4g ODE=%.4f simulated=%.4f\n" alpha
        gamma ode sim)
    (Epidemic.Community.cross_validate ())

(* ------------------------------------------------------------------ *)
(* Mechanical community defense (the micro-scale twin of Figs 6-8)     *)
(* ------------------------------------------------------------------ *)

module Sh = Sweeper.Defense.Sharded

let community () =
  section_header
    "Mechanical community defense: real hosts, real exploit bytes";
  let run ~n ~producers =
    let entry = Apps.Registry.find "apache1" in
    let c =
      Sh.create ~app:"apache1" ~compile:entry.r_compile ~n ~producers
        ~seed:5000 ()
    in
    let rng = Random.State.make [| n; producers |] in
    let exploit_for (_ : Sweeper.Defense.host) =
      let guess = 0x4f770000 + (Random.State.int rng 4096 * 4096) + 0x15a0 in
      (Apps.Exploits.apache1_against ~system_guess:guess
         ~reqbuf_addr:0x08100000 ())
        .Apps.Exploits.x_messages
    in
    for _ = 1 to 3 do
      Sh.post_traffic c ~traffic:exploit_for;
      ignore (Sh.run_round c)
    done;
    let s = Sh.summary c in
    Printf.printf
      "%3d hosts, %d producers: %5.1f%% infected | %d detections, %d blocked, \
       first antibody %s\n"
      n producers
      (100. *. float_of_int s.Sh.sm_infected_hosts /. float_of_int n)
      s.Sh.sm_crashes s.Sh.sm_blocked
      (match s.Sh.sm_first_antibody_vtime_ms with
      | Some ms -> Printf.sprintf "at %.1f vms" ms
      | None -> "never")
  in
  if !smoke then begin
    run ~n:8 ~producers:1;
    run ~n:8 ~producers:0
  end
  else begin
    run ~n:16 ~producers:2;
    run ~n:16 ~producers:1;
    run ~n:32 ~producers:2;
    run ~n:16 ~producers:0
  end;
  Printf.printf
    "(with zero producers no antibody exists; ASLR alone still turns most \
     attempts into crashes, i.e. DoS instead of takeover)\n"

(* ------------------------------------------------------------------ *)
(* Pipeline: cooperative scheduler scaling                             *)
(* ------------------------------------------------------------------ *)

(* Community-scale serving on one shard and one domain: n hosts, benign
   traffic on all of them, one attack stream spliced mid-stream into the
   producer's inbox — service, analysis, recovery and antibody
   propagation all interleaved in simulated time. The numbers are the
   host- and instruction-throughput of the population layer, the
   prerequisite for the "heavy traffic from millions of users" target. *)
let pipeline_scales = [ 10; 100; 1000 ]

type pipeline_row = {
  p_hosts : int;
  p_messages : int;
  p_create_s : float;
  p_run_s : float;
  p_virtual_ms : float;
  p_instructions : int;
  p_sched_steps : int;
  p_crashes : int;
  p_blocked : int;
  p_infections : int;
  p_first_antibody_ms : float option;  (** virtual ms *)
  p_spans : int;  (** trace events emitted; 0 on the obs-off run *)
}

(* A merged community gauge (one shard: the shard's own value). *)
let merged_gauge c name =
  List.fold_left
    (fun acc (m : Obs.Metrics.sample) ->
      match m.Obs.Metrics.s_value with
      | Obs.Metrics.Sample_gauge v when m.Obs.Metrics.s_name = name -> v
      | _ -> acc)
    0. (Sh.merged_metrics c)

let pipeline_run ?(obs = false) ~n ~benign () =
  let entry = Apps.Registry.find "apache1" in
  let t0 = Unix.gettimeofday () in
  let c =
    Sh.create ~app:"apache1" ~compile:entry.r_compile ~n ~producers:1
      ~seed:(9000 + n) ()
  in
  let create_s = Unix.gettimeofday () -. t0 in
  (* The producer's stream carries the exploit mid-way (wrong address
     guess: the monitors trip and the full pipeline runs interleaved with
     everyone else's service). *)
  let exploit = Apps.Registry.exploit ~system_guess:0x12345678 ~cmd_ptr:0 "apache1" in
  let messages = ref 0 in
  let traffic (h : Sweeper.Defense.host) =
    let w = Apps.Registry.workload ~seed:h.Sweeper.Defense.h_id "apache1" benign in
    let stream =
      if h.Sweeper.Defense.h_id = 0 then
        let front = benign / 2 in
        List.filteri (fun i _ -> i < front) w
        @ exploit.Apps.Exploits.x_messages
        @ List.filteri (fun i _ -> i >= front) w
      else w
    in
    messages := !messages + List.length stream;
    stream
  in
  Gc.major ();
  if obs then begin
    Obs.Trace.enable ();
    Obs.Trace.clear ()
  end;
  let t1 = Unix.gettimeofday () in
  Sh.post_traffic c ~traffic;
  ignore (Sh.run_round c);
  let run_s = Unix.gettimeofday () -. t1 in
  let spans = if obs then Obs.Trace.event_count () else 0 in
  if obs then begin
    Obs.Trace.disable ();
    Obs.Trace.clear ()
  end;
  let s = Sh.summary c in
  {
    p_hosts = n;
    p_messages = !messages;
    p_create_s = create_s;
    p_run_s = run_s;
    p_virtual_ms = merged_gauge c "sweeper_sched_vclock_ms";
    p_instructions = s.Sh.sm_instructions;
    p_sched_steps = int_of_float (merged_gauge c "sweeper_sched_steps");
    p_crashes = s.Sh.sm_crashes;
    p_blocked = s.Sh.sm_blocked;
    p_infections = s.Sh.sm_infections;
    p_first_antibody_ms = s.Sh.sm_first_antibody_vtime_ms;
    p_spans = spans;
  }

(* ------------------------------------------------------------------ *)
(* Domain-sharded community (Osim.Cluster): single-domain scaling, the *)
(* domain-count sweep at a fixed shard partition, one outbreak at      *)
(* 10^5-host scale, and the differential oracle.                       *)
(* ------------------------------------------------------------------ *)

type sharded_row = {
  d_hosts : int;
  d_probed : int;
  d_domains : int;
  d_shards : int;
  d_create_s : float;
  d_run_s : float;
  d_windows : int;
  d_exchanged : int;
  d_instructions : int;
  d_infected : int;
  d_first_ab : float option;  (** virtual ms *)
}

(* Attack bytes as a pure function of (seed, host, round): every domain
   count replays the identical outbreak. *)
let sharded_attack ~seed ~round (h : Sweeper.Defense.host) =
  let rng =
    Random.State.make [| seed; 0xA77AC4; h.Sweeper.Defense.h_id; round |]
  in
  let guess = 0x4f770000 + (Random.State.int rng 4096 * 4096) + 0x15a0 in
  (Apps.Exploits.apache1_against ~system_guess:guess ~reqbuf_addr:0x08100000 ())
    .Apps.Exploits.x_messages

(* Population-scale runs live or die by the GC: with 10^2..10^5 hosts of
   ~230 KB live state each, the default 256 KB minor heap and 120%
   space overhead spend a large, host-count-dependent fraction of the
   run marking — which shows up as a phantom hosts/sec regression at
   larger populations. Tune once for the whole bench process. *)
let tune_gc_for_population () =
  Gc.set
    {
      (Gc.get ()) with
      Gc.minor_heap_size = 8 * 1024 * 1024 (* words: 64 MB *);
      space_overhead = 400;
    }

(* The worm probes every [probe_every]-th host: at community scale the
   un-probed hosts cost nothing after boot (no mail, never scheduled).
   [trials] reruns the (deterministic) run and keeps the fastest wall
   time — populations this size sit at the mercy of scheduler noise. *)
let sharded_run ?shards ?(trials = 1) ~domains ~n ~producers ~probe_every
    ~rounds () =
  let entry = Apps.Registry.find "apache1" in
  let seed = bseed 4321 in
  let one () =
    let t0 = Unix.gettimeofday () in
    let c =
      Sh.create ~domains ?shards ~app:"apache1" ~compile:entry.r_compile ~n
        ~producers ~seed ()
    in
    let create_s = Unix.gettimeofday () -. t0 in
    Gc.major ();
    let t1 = Unix.gettimeofday () in
    for round = 1 to rounds do
      Sh.post_traffic c ~traffic:(fun h ->
          if h.Sweeper.Defense.h_id mod probe_every <> 0 then []
          else sharded_attack ~seed ~round h);
      ignore (Sh.run_round c)
    done;
    let run_s = Unix.gettimeofday () -. t1 in
    (create_s, run_s, Sh.summary c)
  in
  let c0, r0, s = one () in
  let create_s = ref c0 and run_s = ref r0 in
  for _ = 2 to trials do
    let c1, r1, _ = one () in
    create_s := min !create_s c1;
    run_s := min !run_s r1
  done;
  let create_s = !create_s and run_s = !run_s in
  ( {
      d_hosts = n;
      d_probed = (n + probe_every - 1) / probe_every;
      d_domains = s.Sh.sm_domains;
      d_shards = s.Sh.sm_shards;
      d_create_s = create_s;
      d_run_s = run_s;
      d_windows = s.Sh.sm_windows;
      d_exchanged = s.Sh.sm_exchanged;
      d_instructions = s.Sh.sm_instructions;
      d_infected = s.Sh.sm_infected_hosts;
      d_first_ab = s.Sh.sm_first_antibody_vtime_ms;
    },
    s )

type sharded_data = {
  sd_cores : int;
  sd_seed : int;
  sd_single : sharded_row list;  (** 1 domain, scaling host count *)
  sd_domains : sharded_row list; (** fixed shards, scaling domain count *)
  sd_scale : sharded_row;        (** the 10^5-host outbreak *)
  sd_oracle_hosts : int;
  sd_oracle_domains : int list;
  sd_oracle_ok : bool;
}

let print_sharded_row r =
  Printf.printf
    "%7d hosts (%5d probed) %d dom/%d shard: create %7.2f s, run %7.3f s \
     (%8.1f hosts/s), %3d windows, %4d envelopes, antibody %s\n"
    r.d_hosts r.d_probed r.d_domains r.d_shards r.d_create_s r.d_run_s
    (float_of_int r.d_hosts /. r.d_run_s)
    r.d_windows r.d_exchanged
    (match r.d_first_ab with
    | Some ms -> Printf.sprintf "%.1f vms" ms
    | None -> "never")

let sharded_bench () =
  section_header
    "Domain-sharded community: barrier windows over Osim.Cluster";
  tune_gc_for_population ();
  let cores = Domain.recommended_domain_count () in
  Printf.printf "(%d core(s) available to this machine)\n" cores;
  (* Single-domain host-count scaling: the satellite regression check --
     hosts/sec must not fall from 100 to 1000 hosts now that turn
     selection is O(log n). *)
  let single =
    List.map
      (fun n ->
        let r, _ =
          sharded_run ~trials:2 ~domains:1 ~n ~producers:1 ~probe_every:1
            ~rounds:2 ()
        in
        print_sharded_row r;
        r)
      (if !smoke then [ 8; 16 ] else [ 100; 300; 1000 ])
  in
  (* Domain-count sweep over a FIXED 4-shard partition: the work split is
     identical for every row; only the executing domain count changes. *)
  let dn = sc 600 12 in
  let domain_rows =
    List.map
      (fun domains ->
        let r, _ =
          sharded_run ~trials:2 ~shards:4 ~domains ~n:dn ~producers:2
            ~probe_every:1 ~rounds:2 ()
        in
        print_sharded_row r;
        r)
      [ 1; 2; 4 ]
  in
  (* Outbreak at scale: the worm probes 1 in 50; everyone else is quiet
     population. Un-probed hosts cost only their boot. *)
  let scale_n = sc 100_000 2_000 in
  let at_scale, _ =
    sharded_run ~shards:4 ~domains:(min 4 cores) ~n:scale_n
      ~producers:(max 2 (scale_n / 1000))
      ~probe_every:50 ~rounds:1 ()
  in
  print_sharded_row at_scale;
  (* The differential oracle, re-checked on the bench configuration. *)
  let oracle_hosts = sc 24 6 in
  let oracle_domains = [ 1; 2; 4 ] in
  let summaries =
    List.map
      (fun domains ->
        snd
          (sharded_run ~shards:4 ~domains ~n:oracle_hosts ~producers:1
             ~probe_every:1 ~rounds:2 ()))
      oracle_domains
  in
  let ok =
    match summaries with
    | [] -> false
    | first :: rest ->
      let strip s = { s with Sh.sm_domains = 0 } in
      List.for_all (fun s -> strip s = strip first) rest
  in
  Printf.printf "oracle: sharded(%s domains) identical on %d hosts -> %s\n"
    (String.concat "/" (List.map string_of_int oracle_domains))
    oracle_hosts
    (if ok then "MATCH" else "MISMATCH");
  if not ok then failwith "sharded oracle mismatch in bench";
  {
    sd_cores = cores;
    sd_seed = bseed 4321;
    sd_single = single;
    sd_domains = domain_rows;
    sd_scale = at_scale;
    sd_oracle_hosts = oracle_hosts;
    sd_oracle_domains = oracle_domains;
    sd_oracle_ok = ok;
  }

let sharded_row_json r =
  Printf.sprintf
    "{ \"hosts\": %d, \"probed\": %d, \"domains\": %d, \"shards\": %d, \
     \"create_s\": %.3f, \"run_s\": %.3f, \"hosts_per_s\": %.1f, \
     \"windows\": %d, \"exchanged\": %d, \"instructions\": %d, \
     \"infected\": %d, \"first_antibody_vtime_ms\": %s }"
    r.d_hosts r.d_probed r.d_domains r.d_shards r.d_create_s r.d_run_s
    (float_of_int r.d_hosts /. r.d_run_s)
    r.d_windows r.d_exchanged r.d_instructions r.d_infected
    (match r.d_first_ab with
    | Some ms -> Printf.sprintf "%.2f" ms
    | None -> "null")

(* ------------------------------------------------------------------ *)
(* Forensics: infection-tree reconstruction throughput.                *)
(* ------------------------------------------------------------------ *)

type forensics_row = {
  f_hosts : int;
  f_edges : int;
  f_blocked : int;
  f_reconstruct_s : float;
  f_max_depth : int;
}

type forensics_data = {
  fx_rows : forensics_row list;
  fx_oracle_hosts : int;
  fx_oracle_edges : int;
  fx_oracle_ok : bool;
}

(* Synthetic evidence: one random infection wave over [n] hosts (every
   host compromised by a random earlier victim, plus ~10% quarantined
   probes that never landed). Exercises reconstruct()'s sort, parent
   resolution, and depth walk at population sizes the simulator cannot
   reach in bench time. *)
let synthetic_evidence ~seed n =
  let rng = Random.State.make [| seed; 0xF04E5; n |] in
  let seqs = Hashtbl.create 256 in
  let next_seq src =
    let r =
      match Hashtbl.find_opt seqs src with
      | Some r -> r
      | None ->
        let r = ref 0 in
        Hashtbl.add seqs src r;
        r
    in
    let v = !r in
    incr r;
    v
  in
  let suspects = ref [] in
  for i = 0 to n - 1 do
    let src = if i = 0 then -1 else Random.State.int rng i in
    let seq = if src < 0 then 0 else next_seq src in
    suspects :=
      {
        Forensics.su_host = i;
        su_msg = 0;
        su_src = src;
        su_seq = seq;
        su_vtime = float_of_int i *. 0.05;
        su_infected = true;
      }
      :: !suspects;
    if i > 0 && Random.State.int rng 10 = 0 then begin
      let bsrc = Random.State.int rng i in
      suspects :=
        {
          Forensics.su_host = i;
          su_msg = 1;
          su_src = bsrc;
          su_seq = next_seq bsrc;
          su_vtime = (float_of_int i *. 0.05) +. 0.01;
          su_infected = false;
        }
        :: !suspects
    end
  done;
  { Forensics.ev_hosts = n; ev_suspects = !suspects }

(* A worm spread with real infections: round 1 seeds one aimed probe on
   a consumer; afterwards every infected host probes two targets per
   round, aimed with probability 0.7 (the rest crash their victim and
   feed the producers). Mirrors `sweeperctl forensics`; pure in
   (seed, host, round) so every domain count replays it identically. *)
let forensics_spread c ~seed ~rounds =
  let host_arr = Array.of_list (Sh.hosts c) in
  let n = Array.length host_arr in
  let aimed (dst : Sweeper.Defense.host) =
    let proc = dst.Sweeper.Defense.h_proc in
    (Apps.Exploits.apache1_against
       ~system_guess:(Osim.Process.system_addr proc)
       ~reqbuf_addr:(Hashtbl.find proc.Osim.Process.data_symbols "reqbuf")
       ())
      .Apps.Exploits.x_messages
  in
  for round = 1 to rounds do
    let attempts = Hashtbl.create 64 in
    let add dst pair =
      Hashtbl.replace attempts dst
        (pair :: Option.value ~default:[] (Hashtbl.find_opt attempts dst))
    in
    if round = 1 then begin
      let rng = Random.State.make [| seed; 0x5EED |] in
      let dst = host_arr.(1 + Random.State.int rng (n - 1)) in
      List.iter
        (fun m -> add dst.Sweeper.Defense.h_id (-1, m))
        (aimed dst)
    end
    else
      Array.iter
        (fun (src : Sweeper.Defense.host) ->
          if src.Sweeper.Defense.h_infected then begin
            let rng =
              Random.State.make
                [| seed; 0x3072; src.Sweeper.Defense.h_id; round |]
            in
            for _k = 1 to 2 do
              let dst = host_arr.(Random.State.int rng n) in
              let accurate = Random.State.float rng 1.0 < 0.7 in
              if dst.Sweeper.Defense.h_id <> src.Sweeper.Defense.h_id then
                let msgs =
                  if accurate then aimed dst
                  else sharded_attack ~seed ~round dst
                in
                List.iter
                  (fun m ->
                    add dst.Sweeper.Defense.h_id
                      (src.Sweeper.Defense.h_id, m))
                  msgs
            done
          end)
        host_arr;
    Sh.post_traffic_from c ~traffic:(fun h ->
        List.rev
          (Option.value ~default:[]
             (Hashtbl.find_opt attempts h.Sweeper.Defense.h_id)));
    ignore (Sh.run_round c)
  done

let forensics_bench () =
  section_header "Forensics: infection-tree reconstruction from netlogs";
  tune_gc_for_population ();
  let sizes = if !smoke then [ 500 ] else [ 1_000; 10_000; 100_000 ] in
  let rows =
    List.map
      (fun n ->
        let ev = synthetic_evidence ~seed:(bseed 77) n in
        Gc.major ();
        let t0 = Unix.gettimeofday () in
        let tree = Forensics.reconstruct ev in
        let dt = Unix.gettimeofday () -. t0 in
        let edges = List.length tree.Forensics.t_edges in
        Printf.printf
          "%7d hosts: %7d edge(s) reconstructed in %8.4f s (%10.0f \
           edges/s), depth %d\n"
          n edges dt
          (float_of_int edges /. dt)
          tree.Forensics.t_max_depth;
        {
          f_hosts = n;
          f_edges = edges;
          f_blocked = tree.Forensics.t_blocked;
          f_reconstruct_s = dt;
          f_max_depth = tree.Forensics.t_max_depth;
        })
      sizes
  in
  (* A real (small) 2-domain spread: the netlog reconstruction must
     equal the simulator's ground-truth infection log — the oracle the
     test suite qchecks over random topologies. *)
  let entry = Apps.Registry.find "apache1" in
  let oracle_hosts = sc 16 8 in
  let c =
    Sh.create ~domains:2 ~app:"apache1" ~compile:entry.r_compile
      ~n:oracle_hosts ~producers:1 ~seed:(bseed 4321) ()
  in
  forensics_spread c ~seed:(bseed 4321) ~rounds:(sc 3 2);
  let tree = Forensics.reconstruct (Forensics.of_sharded c) in
  let edges = List.length tree.Forensics.t_edges in
  let ok = Result.is_ok (Forensics.check tree (Forensics.ground_truth c)) in
  Printf.printf
    "oracle: netlog reconstruction vs ground truth on %d hosts (%d \
     edge(s)) -> %s\n"
    oracle_hosts edges
    (if ok then "MATCH" else "MISMATCH");
  if not ok then failwith "forensic reconstruction diverged from ground truth";
  {
    fx_rows = rows;
    fx_oracle_hosts = oracle_hosts;
    fx_oracle_edges = edges;
    fx_oracle_ok = ok;
  }

let write_pipeline_json rows (sd : sharded_data) (fd : forensics_data) =
  let oc = open_out "BENCH_pipeline.json" in
  Printf.fprintf oc "{\n  \"quantum_instrs\": %d,\n  \"scales\": [\n"
    Osim.Sched.default_quantum;
  List.iteri
    (fun i (r, ro) ->
      Printf.fprintf oc
        "    { \"hosts\": %d, \"messages\": %d, \"create_s\": %.3f, \
         \"run_s\": %.3f, \"virtual_ms\": %.1f, \"instructions\": %d, \
         \"sched_steps\": %d, \"hosts_per_s\": %.1f, \"instrs_per_s\": %.3e, \
         \"crashes\": %d, \"blocked\": %d, \"infections\": %d, \
         \"first_antibody_ms\": %s, \"obs_run_s\": %.3f, \"spans\": %d, \
         \"spans_per_s\": %.1f }%s\n"
        r.p_hosts r.p_messages r.p_create_s r.p_run_s r.p_virtual_ms
        r.p_instructions r.p_sched_steps
        (float_of_int r.p_hosts /. r.p_run_s)
        (float_of_int r.p_instructions /. r.p_run_s)
        r.p_crashes r.p_blocked r.p_infections
        (match r.p_first_antibody_ms with
        | Some ms -> Printf.sprintf "%.2f" ms
        | None -> "null")
        ro.p_run_s ro.p_spans
        (float_of_int ro.p_spans /. ro.p_run_s)
        (if i < List.length rows - 1 then "," else ""))
    rows;
  Printf.fprintf oc "  ],\n";
  let row_list rs =
    String.concat ",\n      " (List.map sharded_row_json rs)
  in
  let speedup r =
    match sd.sd_domains with
    | base :: _ -> base.d_run_s /. r.d_run_s
    | [] -> 1.
  in
  Printf.fprintf oc
    "  \"sharded\": {\n\
    \    \"cores\": %d,\n\
    \    \"seed\": %d,\n\
    \    \"single_domain\": [\n      %s\n    ],\n\
    \    \"domain_scaling\": [\n      %s\n    ],\n\
    \    \"speedup_vs_1_domain\": [ %s ],\n\
    \    \"at_scale\": %s,\n\
    \    \"oracle\": { \"hosts\": %d, \"domains_checked\": [ %s ], \
     \"matches\": %b }\n\
    \  },\n"
    sd.sd_cores sd.sd_seed
    (row_list sd.sd_single)
    (row_list sd.sd_domains)
    (String.concat ", "
       (List.map (fun r -> Printf.sprintf "%.2f" (speedup r)) sd.sd_domains))
    (sharded_row_json sd.sd_scale)
    sd.sd_oracle_hosts
    (String.concat ", " (List.map string_of_int sd.sd_oracle_domains))
    sd.sd_oracle_ok;
  let forensics_row_json r =
    Printf.sprintf
      "{ \"hosts\": %d, \"edges\": %d, \"blocked\": %d, \"reconstruct_s\": \
       %.6f, \"edges_per_s\": %.1f, \"max_depth\": %d }"
      r.f_hosts r.f_edges r.f_blocked r.f_reconstruct_s
      (float_of_int r.f_edges /. r.f_reconstruct_s)
      r.f_max_depth
  in
  Printf.fprintf oc
    "  \"forensics\": {\n\
    \    \"synthetic\": [\n      %s\n    ],\n\
    \    \"oracle\": { \"hosts\": %d, \"edges\": %d, \"matches\": %b }\n\
    \  }\n"
    (String.concat ",\n      " (List.map forensics_row_json fd.fx_rows))
    fd.fx_oracle_hosts fd.fx_oracle_edges fd.fx_oracle_ok;
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "(wrote BENCH_pipeline.json)\n"

let pipeline () =
  section_header
    "Pipeline: cooperative scheduler scaling (interleaved community serving)";
  tune_gc_for_population ();
  let benign = sc 6 2 in
  Printf.printf "%6s %9s %10s %10s %12s %14s %12s %10s\n" "hosts" "msgs"
    "create(s)" "run(s)" "hosts/sec" "instrs/sec" "virtual(ms)" "antibody";
  let rows =
    List.map
      (fun n ->
        let r = pipeline_run ~n ~benign () in
        Printf.printf "%6d %9d %10.3f %10.3f %12.1f %14.3e %12.1f %10s\n"
          r.p_hosts r.p_messages r.p_create_s r.p_run_s
          (float_of_int r.p_hosts /. r.p_run_s)
          (float_of_int r.p_instructions /. r.p_run_s)
          r.p_virtual_ms
          (match r.p_first_antibody_ms with
          | Some ms -> Printf.sprintf "%.1f vms" ms
          | None -> "never");
        (* The same population with tracing on: spans cover every served
           message, checkpoint, and the producer's analysis stages. *)
        let ro = pipeline_run ~obs:true ~n ~benign () in
        Printf.printf "%6s %9s %10s %10.3f   (tracing on: %d spans, %.0f \
                       spans/s)\n"
          "" "" "" ro.p_run_s ro.p_spans
          (float_of_int ro.p_spans /. ro.p_run_s);
        (r, ro))
      pipeline_scales
  in
  Printf.printf
    "(one producer per community; the attack stream is spliced mid-stream \
     into host 0's inbox and analyzed while the other hosts keep serving)\n";
  let sd = sharded_bench () in
  let fd = forensics_bench () in
  if !json_output then write_pipeline_json rows sd fd

(* ------------------------------------------------------------------ *)
(* Section 4.2: sampling                                               *)
(* ------------------------------------------------------------------ *)

let sampling () =
  section_header "Section 4.2: heavyweight monitoring of sampled requests";
  let n = sc 800 80 in
  let time_with rate =
    let entry = Apps.Registry.find "apache1" in
    let proc = Osim.Process.load ~aslr:true ~seed:8 (entry.r_compile ()) in
    let server = Osim.Server.create proc in
    ignore (Osim.Server.run server);
    let sampler = Sweeper.Sampling.create ~rate server in
    let reqs = Apps.Registry.workload ~seed:8 "apache1" n in
    Gc.major ();
    let t0 = Unix.gettimeofday () in
    List.iter (fun m -> ignore (Sweeper.Sampling.handle sampler m)) reqs;
    (Unix.gettimeofday () -. t0, sampler)
  in
  let base, _ = time_with 0 in
  Printf.printf "baseline (no sampling): %.3f s for %d requests\n" base n;
  List.iter
    (fun rate ->
      let t, sampler = time_with rate in
      Printf.printf
        "sample 1/%-3d: %.3f s -> %+6.1f%% overhead (%d messages monitored)\n"
        rate t
        ((t /. base -. 1.) *. 100.)
        sampler.Sweeper.Sampling.sampled)
    [ 100; 20; 5; 1 ];
  (* The payoff: a correct-guess hijack that ASLR would miss. *)
  let entry = Apps.Registry.find "apache1" in
  let proc = Osim.Process.load ~aslr:false ~seed:9 (entry.r_compile ()) in
  let server = Osim.Server.create proc in
  ignore (Osim.Server.run server);
  let sampler = Sweeper.Sampling.create ~rate:1 server in
  let exploit =
    Apps.Exploits.apache1_against
      ~system_guess:(Osim.Process.system_addr proc)
      ~reqbuf_addr:(Hashtbl.find proc.Osim.Process.data_symbols "reqbuf")
      ()
  in
  List.iter
    (fun m ->
      match Sweeper.Sampling.handle sampler m with
      | Sweeper.Sampling.Taint_alarm d ->
        Printf.printf "exact-address hijack caught by sampling: %s\n"
          (Sweeper.Detection.to_string d)
      | Sweeper.Sampling.Plain (`Infected _) ->
        Printf.printf "hijack succeeded (sampling missed it)\n"
      | Sweeper.Sampling.Plain _ -> ())
    exploit.Apps.Exploits.x_messages

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablations () =
  section_header "Ablation: COW vs eager (full-copy) checkpoints";
  let entry = Apps.Registry.find "squid" in
  let proc = Osim.Process.load ~seed:3 (entry.r_compile ()) in
  let server = Osim.Server.create proc in
  ignore (Osim.Server.run server);
  List.iter
    (fun m -> ignore (Osim.Server.handle server m))
    (Apps.Registry.workload "squid" 100);
  let time_snapshots eager =
    let n = sc 200 20 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      ignore (Vm.Memory.snapshot ~eager proc.Osim.Process.mem)
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int n *. 1e6
  in
  let cow_us = time_snapshots false in
  let eager_us = time_snapshots true in
  Printf.printf
    "snapshot cost over %d mapped pages: COW %.1f us, full copy %.1f us \
     (%.1fx)\n"
    (Vm.Memory.mapped_pages proc.Osim.Process.mem)
    cow_us eager_us (eager_us /. cow_us);

  section_header "Ablation: antibodies vs polymorphic exploit variants";
  (* Exact signature stops only the original bytes; token signatures stop
     same-shape variants; VSEFs stop them all. *)
  let check_variant key (variant : Apps.Exploits.t) ~with_sig ~with_vsef r =
    let entry = Apps.Registry.find key in
    let proc = Osim.Process.load ~aslr:true ~seed:77 (entry.r_compile ()) in
    let server = Osim.Server.create proc in
    ignore (Osim.Server.run server);
    let ab = r.Sweeper.Orchestrator.a_antibody in
    let ab =
      if with_sig then ab else { ab with Sweeper.Antibody.ab_signature = None }
    in
    let ab =
      if with_vsef then ab else { ab with Sweeper.Antibody.ab_vsefs = [] }
    in
    ignore (Sweeper.Antibody.deploy proc ab);
    let stopped = ref false in
    List.iter
      (fun m ->
        match Osim.Server.handle server m with
        | `Filtered _ -> stopped := true
        | `Crashed _ -> ()
        | `Served _ | `Stopped | `Infected _ -> ()
        | exception Sweeper.Detection.Detected _ -> stopped := true)
      variant.Apps.Exploits.x_messages;
    !stopped
  in
  List.iter
    (fun key ->
      let r, _, _ = attack_and_analyze key in
      let variants =
        Apps.Exploits.variants ~system_guess:0x23456789 ~cmd_ptr:0 key
      in
      let count pred = List.length (List.filter pred variants) in
      let sig_stops =
        count (fun v -> check_variant key v ~with_sig:true ~with_vsef:false r)
      in
      let vsef_stops =
        count (fun v -> check_variant key v ~with_sig:false ~with_vsef:true r)
      in
      Printf.printf
        "%-8s: %d variants; exact signature stops %d; VSEFs stop %d\n" key
        (List.length variants) sig_stops vsef_stops)
    apps;

  section_header "Ablation: proactive protection in the hit-list model";
  List.iter
    (fun rho ->
      let p = { (Epidemic.Si.hitlist ()) with rho; alpha = 0.0001 } in
      Printf.printf "beta=1000 rho=%-10g gamma=10 -> infection ratio %.4f\n"
        rho
        (Epidemic.Si.infection_ratio p ~gamma:10.))
    [ 1.0; Epidemic.Si.rho_aslr ];
  Printf.printf "(without ASLR slowing the worm, no gamma is fast enough)\n"

(* ------------------------------------------------------------------ *)
(* Interpreter microbenchmark: ns/instr under the three monitoring      *)
(* tiers (none / one pc-hook / global hook), the number the paper's     *)
(* "overhead proportional to hooked instructions" claim rests on.       *)
(* ------------------------------------------------------------------ *)

(* A tight 9-instruction loop mixing ALU, word/byte memory traffic and a
   conditional branch — the interpreter's steady-state diet. *)
let vm_loop_cpu () =
  let open Vm.Isa in
  let l = Vm.Layout.create ~aslr:false () in
  let m = Vm.Memory.create () in
  let items =
    [
      Vm.Asm.Label "_start";
      Vm.Asm.Ins (Mov (R4, Imm 0x08100000));
      Vm.Asm.Label "loop";
      Vm.Asm.Ins (Bin (Add, R0, Imm 1));
      Vm.Asm.Ins (Store (R4, 0, R0));
      Vm.Asm.Ins (Load (R2, R4, 0));
      Vm.Asm.Ins (Bin (Add, R2, Reg R0));
      Vm.Asm.Ins (Storeb (R4, 5, R2));
      Vm.Asm.Ins (Loadb (R3, R4, 5));
      Vm.Asm.Ins (Cmp (R0, Imm 0x7FFFFFFF));
      Vm.Asm.Ins (Jcc (Lt, Lbl "loop"));
      Vm.Asm.Ins Halt;
    ]
  in
  let img =
    Vm.Asm.load ~base:l.Vm.Layout.app_code_base [ Vm.Asm.make_unit "bench" items ]
  in
  let l =
    Vm.Layout.set_code_limits l ~app_limit:img.Vm.Asm.limit
      ~lib_limit:l.Vm.Layout.lib_code_base
  in
  let cpu = Vm.Cpu.create ~mem:m ~layout:l ~code:img.Vm.Asm.code in
  cpu.Vm.Cpu.pc <- l.Vm.Layout.app_code_base;
  Vm.Cpu.set_reg cpu Vm.Isa.SP (l.Vm.Layout.stack_top - 16);
  (cpu, img)

let ns_per_instr prepare =
  let fuel = sc 3_000_000 200_000 in
  let best = ref infinity in
  for _ = 1 to sc 7 2 do
    let cpu, img = vm_loop_cpu () in
    prepare cpu img;
    Gc.major ();
    let t0 = Unix.gettimeofday () in
    ignore (Vm.Cpu.run ~fuel cpu);
    let dt = Unix.gettimeofday () -. t0 in
    best := min !best (dt *. 1e9 /. float_of_int cpu.Vm.Cpu.icount)
  done;
  !best

(* Compile the micro loop's basic blocks and engage the superinstruction
   tier — what Process.load does for every real app image. *)
let install_loop_blocks cpu (img : Vm.Asm.image) =
  Vm.Block_compile.install cpu
    (Static_an.Cfg.block_bounds (Static_an.Cfg.build img.Vm.Asm.code))

(* Tier-accounting audit: run the micro loop under [prepare]'s
   configuration with blocks compiled and check that the three retirement
   counters partition the executed stream exactly —
   block + fast + slow == icount. (The loop never rolls back, so icount
   is an independent count of instructions executed.) Violations are a
   correctness bug in the tier dispatch, not a measurement artifact, so
   fail the whole bench loudly. *)
let tier_counts name prepare =
  let cpu, img = vm_loop_cpu () in
  install_loop_blocks cpu img;
  prepare cpu img;
  ignore (Vm.Cpu.run ~fuel:(sc 200_000 20_000) cpu);
  let b = cpu.Vm.Cpu.block_retired
  and f = cpu.Vm.Cpu.fast_retired
  and s = cpu.Vm.Cpu.slow_retired
  and n = cpu.Vm.Cpu.icount in
  if b + f + s <> n then
    failwith
      (Printf.sprintf
         "tier counters leak under %s: block %d + fast %d + slow %d <> \
          executed %d"
         name b f s n);
  (name, b, f, s, n)

let micro_vm () =
  section_header "Interpreter tiers: ns/instr vs installed instrumentation";
  let uninstr = ns_per_instr (fun _ _ -> ()) in
  (* Tier 3: the same loop with its basic blocks compiled into fused
     closures — one bounds check and one hook-mask/fuel test per block
     instead of per instruction. *)
  let block_compiled = ns_per_instr install_loop_blocks in
  (* One targeted hook: the hooked pc (1 of the 9 in the loop) pays the
     instrumented path, every other instruction stays on the fast path. *)
  let one_pc =
    ns_per_instr (fun cpu img ->
        ignore
          (Vm.Cpu.add_pc_hook cpu ~pc:(img.Vm.Asm.base + 8) (fun _ -> ())))
  in
  (* A global pre-hook (the shape of a whole-execution taint monitor)
     forces every instruction through the effect-record path. *)
  let global =
    ns_per_instr (fun cpu _ ->
        let writes = ref 0 in
        ignore
          (Vm.Cpu.add_post_hook cpu (fun eff ->
               writes := !writes + List.length eff.Vm.Event.e_mem_writes)))
  in
  (* Observability overhead: with the tracer enabled nothing on the fast
     path emits spans, so ns/instr must stay within noise of the
     uninstrumented tier. The flight recorder is a global post-hook, so it
     pays the instrumented path like any whole-execution monitor. *)
  let obs_on = ns_per_instr (fun _ _ -> Obs.Trace.enable ()) in
  Obs.Trace.disable ();
  Obs.Trace.clear ();
  let flight = ns_per_instr (fun cpu _ -> ignore (Obs.Recorder.attach cpu)) in
  (* Checkpoint cost in pages actually copied (COW faults / checkpoint). *)
  let _, cks, cow, _, _ =
    run_workload
      ~config:{ Osim.Server.checkpoint_interval_ms = 40; keep_checkpoints = 20 }
      "squid" (sc 300 60) 11
  in
  let pages_per_ck =
    if cks = 0 then 0.0 else float_of_int cow /. float_of_int cks
  in
  (* Audit the tier accounting in each instrumented configuration the
     acceptance bar names: hooked, observability on, flight recorder. *)
  let tiers =
    [
      tier_counts "hooked" (fun cpu img ->
          ignore
            (Vm.Cpu.add_pc_hook cpu ~pc:(img.Vm.Asm.base + 8) (fun _ -> ())));
      tier_counts "obs_on" (fun _ _ -> Obs.Trace.enable ());
      tier_counts "flight_recorder" (fun cpu _ ->
          ignore (Obs.Recorder.attach cpu));
    ]
  in
  Obs.Trace.disable ();
  Obs.Trace.clear ();
  Printf.printf "uninstrumented        : %8.1f ns/instr\n" uninstr;
  Printf.printf "block-compiled (tier 3): %7.1f ns/instr (%.1fx vs \
                 per-instruction)\n"
    block_compiled
    (uninstr /. block_compiled);
  Printf.printf "1 pc-hook (1/9 pcs)   : %8.1f ns/instr (%+.1f%%)\n" one_pc
    ((one_pc /. uninstr -. 1.) *. 100.);
  Printf.printf "global taint-style hook: %8.1f ns/instr (%.1fx)\n" global
    (global /. uninstr);
  Printf.printf "tracer enabled        : %8.1f ns/instr (%+.1f%% vs \
                 uninstrumented)\n"
    obs_on
    ((obs_on /. uninstr -. 1.) *. 100.);
  Printf.printf "flight recorder on    : %8.1f ns/instr (%.1fx)\n" flight
    (flight /. uninstr);
  Printf.printf "pages copied/checkpoint: %7.1f (over %d checkpoints)\n"
    pages_per_ck cks;
  List.iter
    (fun (name, b, f, s, n) ->
      Printf.printf
        "tiers under %-15s: block %d + fast %d + slow %d == executed %d\n"
        name b f s n)
    tiers;
  (uninstr, block_compiled, one_pc, global, obs_on, flight, pages_per_ck, cks,
   tiers)

(* ------------------------------------------------------------------ *)
(* Interval abstract interpretation: analysis cost and proven-safe     *)
(* coverage per app, plus the bounds-proof elision win on the micro    *)
(* loop (4 of its 9 instructions are proven-safe accesses).            *)
(* ------------------------------------------------------------------ *)

(* Like [install_loop_blocks], plus bounds-proof elision from a fresh
   interval analysis of the loop image — what Process.load does for
   every real app. *)
let install_loop_blocks_elided cpu (img : Vm.Asm.image) =
  let ai =
    Static_an.Absint.analyze ~layout:cpu.Vm.Cpu.layout img.Vm.Asm.code
  in
  Vm.Block_compile.install
    ~safe_of:(Static_an.Absint.safe_range ai)
    cpu
    (Static_an.Cfg.block_bounds (Static_an.Cfg.build img.Vm.Asm.code))

type absint_row = {
  ai_app : string;
  ai_ms : float;
  ai_instructions : int;
  ai_accesses : int;
  ai_proven : int;
  ai_possible : int;
  ai_oob : int;
  ai_unreachable : int;
  ai_proven_pct : float;
}

let micro_absint () =
  section_header
    "Interval abstract interpretation: proven-safe coverage and elision";
  let rows =
    List.map
      (fun app ->
        let entry = Apps.Registry.find app in
        let proc = Osim.Process.load ~seed:(bseed 3) (entry.r_compile ()) in
        let ai = proc.Osim.Process.absint in
        {
          ai_app = app;
          ai_ms = Static_an.Absint.analysis_ms ai;
          ai_instructions = Static_an.Absint.instructions ai;
          ai_accesses = Static_an.Absint.accesses ai;
          ai_proven = Static_an.Absint.proven ai;
          ai_possible = Static_an.Absint.possible ai;
          ai_oob = Static_an.Absint.oob ai;
          ai_unreachable = Static_an.Absint.unreachable ai;
          ai_proven_pct = 100. *. Static_an.Absint.proven_pct ai;
        })
      apps
  in
  Printf.printf "%-8s %7s %9s %7s %9s %5s %8s %10s %8s\n" "app" "instrs"
    "accesses" "proven" "possible" "oob" "unreach" "proven(%)" "ms";
  List.iter
    (fun r ->
      Printf.printf "%-8s %7d %9d %7d %9d %5d %8d %10.1f %8.3f\n" r.ai_app
        r.ai_instructions r.ai_accesses r.ai_proven r.ai_possible r.ai_oob
        r.ai_unreachable r.ai_proven_pct r.ai_ms)
    rows;
  let guarded = ns_per_instr install_loop_blocks in
  let elided = ns_per_instr install_loop_blocks_elided in
  (* Soundness audit: the elided run must never trip its residual range
     checks — the micro loop is hijack-free, so a trip would mean a
     wrong proof. *)
  let cpu, img = vm_loop_cpu () in
  install_loop_blocks_elided cpu img;
  ignore (Vm.Cpu.run ~fuel:(sc 200_000 20_000) cpu);
  if cpu.Vm.Cpu.elision_trips <> 0 then
    failwith
      (Printf.sprintf "bounds-proof elision tripped %d times on the micro \
                       loop: the static proof is wrong"
         cpu.Vm.Cpu.elision_trips);
  Printf.printf
    "micro loop, block tier: guarded %.1f ns/instr -> elided %.1f ns/instr \
     (%.2fx, 0 tripwires)\n"
    guarded elided (guarded /. elided);
  Printf.printf
    "(proven(%%) = reachable accesses proven safe; elided blocks replace \
     the multi-range memory guard with two compares against the proven \
     region's constant bounds)\n";
  (rows, guarded, elided)

(* ------------------------------------------------------------------ *)
(* Taint & slicing engines: ns/instr of the heavyweight replays.       *)
(* The workload is what the analyses actually chew through: a replay   *)
(* that recv's a message and then loops copy/ALU traffic over the      *)
(* tainted buffer.                                                     *)
(* ------------------------------------------------------------------ *)

let taint_bench_proc reps =
  let src =
    Printf.sprintf
      {|
      char buf[128];
      int sink;
      int main() {
        int n = _recv(buf, 128);
        int r = 0;
        int acc = 0;
        int i = 0;
        while (r < %d) {
          i = 0;
          while (i < 64) {
            acc = acc + buf[i];
            buf[i + 64] = buf[i];
            i = i + 1;
          }
          r = r + 1;
        }
        sink = acc;
        return 0;
      }
      |}
      reps
  in
  let proc =
    Osim.Process.load ~aslr:true ~seed:(bseed 11)
      (Minic.Driver.compile_app ~name:"taintbench" src)
  in
  ignore (Osim.Process.run proc);
  ignore (Osim.Process.send_message proc (String.make 96 'Z'));
  proc

(* Best-of-[trials] ns/instr of one replay analysis; each trial gets a
   fresh process (a replay consumes it). *)
let replay_ns_per_instr trials mk run instrs_of =
  let best = ref infinity in
  let instrs = ref 0 in
  for _ = 1 to trials do
    let proc = mk () in
    Gc.major ();
    let t0 = Unix.gettimeofday () in
    let r = run proc in
    let dt = Unix.gettimeofday () -. t0 in
    instrs := instrs_of r;
    if !instrs > 0 then best := min !best (dt *. 1e9 /. float_of_int !instrs)
  done;
  (!best, !instrs)

let micro_taint () =
  section_header "Analysis engines: ns/instr of the heavyweight replays";
  let reps = sc 2000 20 in
  let trials = sc 5 2 in
  let mk () = taint_bench_proc reps in
  let fused, n_instr =
    replay_ns_per_instr trials mk Sweeper.Taint.run (fun r ->
        r.Sweeper.Taint.t_instructions)
  in
  let oracle, _ =
    replay_ns_per_instr trials mk Sweeper.Taint.Oracle.run (fun r ->
        r.Sweeper.Taint.t_instructions)
  in
  let slice, _ =
    replay_ns_per_instr trials mk Sweeper.Slice.run (fun r ->
        r.Sweeper.Slice.sl_instructions)
  in
  let membug, _ =
    replay_ns_per_instr trials mk Sweeper.Membug.run (fun r ->
        r.Sweeper.Membug.m_instructions)
  in
  (* Cross-check: both taint engines must agree on the replay. *)
  let r1 = Sweeper.Taint.run (mk ()) in
  let r2 = Sweeper.Taint.Oracle.run (mk ()) in
  let agree =
    Sweeper.Taint.verdict_to_string r1.Sweeper.Taint.t_verdict
    = Sweeper.Taint.verdict_to_string r2.Sweeper.Taint.t_verdict
    && r1.Sweeper.Taint.t_prop_pcs = r2.Sweeper.Taint.t_prop_pcs
  in
  Printf.printf "replay length: %d instructions (engines agree: %b)\n" n_instr
    agree;
  Printf.printf "taint, fused shadow-page engine : %8.1f ns/instr\n" fused;
  Printf.printf "taint, per-byte oracle engine   : %8.1f ns/instr (%.1fx)\n"
    oracle (oracle /. fused);
  Printf.printf "backward slice, fused flat graph : %8.1f ns/instr\n" slice;
  Printf.printf "memory-bug detection, fused      : %8.1f ns/instr\n" membug;
  (fused, oracle, slice, membug)

(* Per-stage Table 3 wall-clock, collected for the JSON dump. *)
let table3_stage_rows () =
  List.map
    (fun key ->
      let r, _, _ = attack_and_analyze key in
      (key, r))
    apps

let json_escape_stage name =
  String.map (fun c -> if c = ' ' || c = '/' then '_' else Char.lowercase_ascii c)
    name

(* BENCH_vm.json accumulates results from several producers, so a `bench
   micro --json` run must only replace the keys it recomputes: read the
   existing object, substitute refreshed keys in place, append new ones.
   (The old writer emitted a fresh file and silently dropped everything
   another section or tool had recorded.) *)
let merge_json_file file (fresh : (string * Obs.Json.t) list) =
  let existing =
    if Sys.file_exists file then begin
      let ic = open_in_bin file in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Obs.Json.parse s with Ok (Obs.Json.Obj kvs) -> kvs | _ -> []
    end
    else []
  in
  let merged =
    List.map
      (fun (k, v) ->
        match List.assoc_opt k fresh with Some v' -> (k, v') | None -> (k, v))
      existing
    @ List.filter (fun (k, _) -> not (List.mem_assoc k existing)) fresh
  in
  let oc = open_out file in
  output_string oc (Obs.Json.to_string (Obs.Json.Obj merged));
  output_char oc '\n';
  close_out oc

let write_bench_json ~uninstr ~block_compiled ~one_pc ~global ~obs_on ~flight
    ~pages_per_ck ~cks ~tiers ~taint_fused ~taint_oracle ~slice_ns ~membug_ns
    ~absint_rows ~absint_guarded ~absint_elided ~table3 =
  let f x = Obs.Json.Float x in
  let tier_obj (b, fa, sl, n) =
    Obs.Json.Obj
      [
        ("block", Obs.Json.Int b);
        ("fast", Obs.Json.Int fa);
        ("slow", Obs.Json.Int sl);
        ("executed", Obs.Json.Int n);
      ]
  in
  let fresh =
    [
      ("ns_per_instr_uninstrumented", f uninstr);
      ("ns_per_instr_block_compiled", f block_compiled);
      ("block_compiled_speedup_x", f (uninstr /. block_compiled));
      ("ns_per_instr_one_pc_hook", f one_pc);
      ("ns_per_instr_global_taint_hook", f global);
      ("one_pc_hook_overhead_pct", f ((one_pc /. uninstr -. 1.) *. 100.));
      ("global_hook_slowdown_x", f (global /. uninstr));
      ("ns_per_instr_obs_enabled", f obs_on);
      ("obs_enabled_overhead_pct", f ((obs_on /. uninstr -. 1.) *. 100.));
      ("ns_per_instr_flight_recorder", f flight);
      ("flight_recorder_slowdown_x", f (flight /. uninstr));
      ("ns_per_instr_taint_analysis", f taint_fused);
      ("ns_per_instr_taint_oracle", f taint_oracle);
      ("taint_speedup_x", f (taint_oracle /. taint_fused));
      ("ns_per_instr_slice_analysis", f slice_ns);
      ("ns_per_instr_membug_analysis", f membug_ns);
      ("pages_copied_per_checkpoint", f pages_per_ck);
      ("checkpoints", Obs.Json.Int cks);
      ( "tier_counters",
        Obs.Json.Obj
          (List.map
             (fun (name, b, fa, sl, n) -> (name, tier_obj (b, fa, sl, n)))
             tiers) );
      ( "absint",
        Obs.Json.Obj
          [
            ("ns_per_instr_block_guarded", f absint_guarded);
            ("ns_per_instr_block_elided", f absint_elided);
            ("elision_speedup_x", f (absint_guarded /. absint_elided));
            ( "apps",
              Obs.Json.Obj
                (List.map
                   (fun r ->
                     ( r.ai_app,
                       Obs.Json.Obj
                         [
                           ("analysis_ms", f r.ai_ms);
                           ("instructions", Obs.Json.Int r.ai_instructions);
                           ("accesses", Obs.Json.Int r.ai_accesses);
                           ("proven", Obs.Json.Int r.ai_proven);
                           ("possible", Obs.Json.Int r.ai_possible);
                           ("oob", Obs.Json.Int r.ai_oob);
                           ("unreachable", Obs.Json.Int r.ai_unreachable);
                           ("proven_pct", f r.ai_proven_pct);
                         ] ))
                   absint_rows) );
          ] );
      ( "table3_stage_ms",
        Obs.Json.Obj
          (List.map
             (fun (key, (r : Sweeper.Orchestrator.report)) ->
               ( key,
                 Obs.Json.Obj
                   (List.map
                      (fun (st : Sweeper.Orchestrator.stage_timing) ->
                        (json_escape_stage st.st_name, f st.st_wall_ms))
                      r.Sweeper.Orchestrator.a_timings
                   @ [
                       ( "time_to_first_vsef",
                         f r.Sweeper.Orchestrator.a_time_to_first_vsef_ms );
                       ("total", f r.Sweeper.Orchestrator.a_total_ms);
                     ]) ))
             table3) );
    ]
  in
  merge_json_file "BENCH_vm.json" fresh;
  Printf.printf "(wrote BENCH_vm.json)\n"

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the primitives                          *)
(* ------------------------------------------------------------------ *)

let micro () =
  let ( uninstr,
        block_compiled,
        one_pc,
        global,
        obs_on,
        flight,
        pages_per_ck,
        cks,
        tiers ) =
    micro_vm ()
  in
  let taint_fused, taint_oracle, slice_ns, membug_ns = micro_taint () in
  let absint_rows, absint_guarded, absint_elided = micro_absint () in
  if !json_output then begin
    let table3 = table3_stage_rows () in
    write_bench_json ~uninstr ~block_compiled ~one_pc ~global ~obs_on ~flight
      ~pages_per_ck ~cks ~tiers ~taint_fused ~taint_oracle ~slice_ns ~membug_ns
      ~absint_rows ~absint_guarded ~absint_elided ~table3
  end;
  section_header "Microbenchmarks (Bechamel)";
  let open Bechamel in
  let entry = Apps.Registry.find "squid" in
  let proc = Osim.Process.load ~seed:(bseed 2) (entry.r_compile ()) in
  let server = Osim.Server.create proc in
  ignore (Osim.Server.run server);
  List.iter
    (fun m -> ignore (Osim.Server.handle server m))
    (Apps.Registry.workload ~seed:(bseed 7) "squid" 50);
  let snapshot_test =
    Test.make ~name:"memory-cow-snapshot"
      (Staged.stage (fun () -> ignore (Vm.Memory.snapshot proc.Osim.Process.mem)))
  in
  let checkpoint_test =
    Test.make ~name:"process-checkpoint"
      (Staged.stage (fun () -> ignore (Osim.Checkpoint.take proc)))
  in
  let sig_exact = Sweeper.Signature.exact (String.make 256 'x') in
  let msg = String.make 256 'y' in
  let signature_test =
    Test.make ~name:"signature-match-exact"
      (Staged.stage (fun () -> ignore (Sweeper.Signature.matches sig_exact msg)))
  in
  let sig_tok =
    Sweeper.Signature.tokens_of_variants
      [ "GET /a HTTP\nReferer: x\n"; "GET /b HTTP\nReferer: y\n" ]
  in
  let token_test =
    Test.make ~name:"signature-match-tokens"
      (Staged.stage (fun () ->
           ignore (Sweeper.Signature.matches sig_tok "GET /c HTTP\nReferer: z\n")))
  in
  (* Bechamel's pipeline: measure monotonic time, fit ns/run with OLS. *)
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:(sc 2000 200) ~quota:(Time.second (sc 0.5 0.1)) ()
  in
  let tests =
    Test.make_grouped ~name:"sweeper"
      [ snapshot_test; checkpoint_test; signature_test; token_test ]
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    Analyze.merge ols instances
      (List.map (fun i -> Analyze.all ols i raw) instances)
  in
  Hashtbl.iter
    (fun measure tbl ->
      Hashtbl.iter
        (fun test result ->
          match Analyze.OLS.estimates result with
          | Some (est :: _) ->
            Printf.printf "%-40s %.1f ns/op (%s)\n" test est measure
          | _ -> ())
        tbl)
    results

(* ------------------------------------------------------------------ *)

let all_sections =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("vsef", vsef_overhead);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("hitlist", hitlist_response);
    ("community", community);
    ("pipeline", pipeline);
    ("sharded", fun () -> ignore (sharded_bench () : sharded_data));
    ("forensics", fun () -> ignore (forensics_bench () : forensics_data));
    ("sampling", sampling);
    ("ablations", ablations);
    ( "absint",
      fun () ->
        ignore (micro_absint () : absint_row list * float * float) );
    ("micro", micro);
  ]

let () =
  let rec parse acc = function
    | [] -> List.rev acc
    | "--json" :: rest ->
      json_output := true;
      parse acc rest
    | ("smoke" | "--smoke") :: rest ->
      smoke := true;
      parse acc rest
    | "--seed" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n -> bench_seed := n
      | None -> Printf.eprintf "--seed: not an integer: %s\n" n);
      parse acc rest
    | a :: rest when String.length a > 7 && String.sub a 0 7 = "--seed=" ->
      (match int_of_string_opt (String.sub a 7 (String.length a - 7)) with
      | Some n -> bench_seed := n
      | None -> Printf.eprintf "--seed: not an integer: %s\n" a);
      parse acc rest
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let requested =
    match args with
    | _ :: _ as names -> names
    | [] -> List.map fst all_sections
  in
  List.iter
    (fun name ->
      match List.assoc_opt name all_sections with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown section %s (available: %s)\n" name
          (String.concat " " (List.map fst all_sections)))
    requested
