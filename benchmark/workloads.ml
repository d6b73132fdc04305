(* The four workloads. Each drives the system only through public calls
   (Apps.Registry, Osim.Process.load, Osim.Server.create/run,
   Sweeper.Orchestrator.protected_handle, Sweeper.Defense.Sharded,
   Forensics) and times those calls from outside. Every input -- request
   streams, attack targets, probes -- is a pure function of the seed. A
   workload repeats one unit of work -- a serve session, an attack round,
   a community trial -- after one untimed warm-up unit, until the time
   budget is spent; every unit does exactly the same work, and its
   outputs are checked. *)

module Sh = Sweeper.Defense.Sharded
module D = Sweeper.Defense

type cfg = {
  seed : int;
  seconds : float;
  smoke : bool;
  warmup : bool;  (** run one untimed unit first *)
}

(* What one unit of work measured. [counters] is the work it did, which
   is deterministic: every unit of a run must report the same values. *)
type unit_result = {
  setup_s : float;
  response_ms : float option;  (** the unit's operation, when not per request *)
  benign : int;                (** benign requests served *)
  benign_s : float;            (** wall spent serving them *)
  counters : (string * int) list;
  details : (string * string * float) list;
      (** workload-specific: name, unit, value; medians reported *)
}

(* What a timed phase measured: its units, plus what spans units. *)
type phase = {
  units : unit_result list;
  attempted : int;
  failed : int;
  failures : string list;
  wall_s : float;
  response : Stats.summary;  (** the workload's response time, ms *)
  details : (string * string * float) list;
  shard_of_server : (int, int) Hashtbl.t;
}

(* Harness spans sit on the coordinator lane (pid -1) under category
   "bench"; with tracing off [with_span] costs one branch. *)
let span name f = Obs.Trace.with_span ~cat:"bench" ~pid:(-1) name f

let timed name f =
  let t0 = Stats.now () in
  let r = span name f in
  (r, Stats.now () -. t0)

(* Operations attempted and failed; a failure keeps its message. *)
type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable why : string list;
}

let checks () = { attempted = 0; failed = 0; why = [] }

(* [n] operations, of which [bad] failed. *)
let tally ck ~n ~bad msg =
  ck.attempted <- ck.attempted + n;
  if bad > 0 then begin
    ck.failed <- ck.failed + bad;
    ck.why <- msg () :: ck.why
  end

let check ck ok msg = tally ck ~n:1 ~bad:(if ok then 0 else 1) msg

(* Run [warmup] once untimed (unless [cfg.warmup] is false), then
   [unit_] until [cfg.seconds] have passed, at least once. Units always
   complete, so a run overshoots its budget by less than one unit. A
   full major collection after each unit, untimed, collects what the
   unit dropped, so each unit starts from the same heap and the heap
   peak is that of one unit. *)
let repeat cfg ~warmup unit_ =
  let collected f () =
    let u = f () in
    span "gc" Gc.full_major;
    u
  in
  if cfg.warmup then ignore (span "warmup" (collected warmup));
  let unit_ = collected unit_ in
  let t0 = Stats.now () in
  let rec go acc =
    let acc = unit_ () :: acc in
    if Stats.now () -. t0 < cfg.seconds then go acc else List.rev acc
  in
  let units = go [] in
  (units, Stats.now () -. t0)

(* The VM work of a set of processes: monotonic counters, so a span of
   work is the difference of two readings. *)
let vm_work (procs : Osim.Process.t list) =
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 procs in
  let cpu f (p : Osim.Process.t) = f p.Osim.Process.cpu in
  [ ("vm.instructions",
     sum (cpu (fun c ->
          c.Vm.Cpu.block_retired + c.Vm.Cpu.fast_retired + c.Vm.Cpu.slow_retired)));
    ("vm.block_instructions", sum (cpu (fun c -> c.Vm.Cpu.block_retired)));
    ("vm.slow_instructions", sum (cpu (fun c -> c.Vm.Cpu.slow_retired)));
    ("vm.cow_pages", sum (fun p -> fst (Vm.Memory.stats p.Osim.Process.mem))) ]

(* Their memory footprint at the end of a unit. *)
let vm_footprint (procs : Osim.Process.t list) =
  [ ("vm.mapped_pages",
     List.fold_left
       (fun acc (p : Osim.Process.t) ->
         acc + Vm.Memory.mapped_pages p.Osim.Process.mem)
       0 procs);
    ("hosts", List.length procs) ]

let diff_counters after before =
  List.map (fun (k, v) -> (k, v - List.assoc k before)) after

let checkpoints servers =
  List.fold_left (fun acc s -> acc + Osim.Server.checkpoints_taken s) 0 servers

(* Address-space layouts are fixed, not drawn from the seed: a request's
   cost differs by up to a third between ASLR draws (serve measured
   27.6k to 37.4k req/s over five draws), so seed-drawn layouts would
   make runs on different seeds measure layout luck rather than code. *)
let layout_seed = 1

(* One protected server, built the way a library user builds one:
   compile, load, wrap, run to the first input wait. *)
let boot (entry : Apps.Registry.entry) =
  let compiled = span "compile" entry.Apps.Registry.r_compile in
  let proc =
    span "load" (fun () ->
        Osim.Process.load ~aslr:true ~seed:layout_seed compiled)
  in
  span "server_create" (fun () ->
      let server = Osim.Server.create proc in
      ignore (Osim.Server.run server);
      server)

let outcome_name = function
  | `Served _ -> "served"
  | `Filtered f -> "filtered:" ^ f
  | `Stopped -> "stopped"
  | `Attack _ -> "attack"
  | `Compromised -> "compromised"
  | `Blocked_by_vsef _ -> "blocked-by-vsef"

let handle key server msg =
  span "handle" (fun () ->
      Sweeper.Orchestrator.protected_handle ~app:key server msg)

(* A benign request, timed on its own; it must be served. *)
let benign ck hist key server msg =
  let t0 = Stats.now () in
  let r = handle key server msg in
  let dt = Stats.now () -. t0 in
  Stats.Hist.add hist dt;
  check ck
    (match r with `Served _ -> true | _ -> false)
    (fun () -> Printf.sprintf "%s: benign request %s" key (outcome_name r));
  dt

(* The highest percentile of a latency histogram with at least ten
   samples beyond it, in µs. *)
let tail_detail hist =
  let n = hist.Stats.Hist.total in
  match if n >= 1000 then Some 99. else if n >= 100 then Some 90. else None with
  | Some p ->
    [ (Printf.sprintf "benign_p%.0f_us" p, "us", Stats.Hist.percentile hist p *. 1e6) ]
  | None -> []

let median_details (units : unit_result list) =
  match units with
  | [] -> []
  | u :: _ ->
    List.map
      (fun (name, unit_, _) ->
        ( name,
          unit_,
          Stats.median
            (List.map
               (fun (u : unit_result) ->
                 let _, _, v =
                   List.find (fun (n, _, _) -> n = name) u.details
                 in
                 v)
               units) ))
      u.details

(* ------------------------------------------------------------------ *)
(* serve: benign requests through protected servers, one per app.     *)
(* ------------------------------------------------------------------ *)

(* A session boots one protected server per app, warms each with [warm]
   requests, then times [per_app] requests per app, one at a time
   round-robin: a closed loop with one client. A server's network log
   grows with every request, so bounding a server's life to a session
   keeps the heap independent of how many requests a faster build
   completes in the budget. *)
let serve cfg =
  let warm, per_app = if cfg.smoke then (20, 100) else (500, 10_000) in
  let ck = checks () in
  let streams =
    List.map
      (fun (e : Apps.Registry.entry) ->
        ( e,
          Array.of_list
            (Apps.Registry.workload ~seed:cfg.seed e.Apps.Registry.r_key
               (warm + per_app)) ))
      Apps.Registry.all
  in
  let hist = Stats.Hist.create () and scratch = Stats.Hist.create () in
  let session hist () =
    let booted, setup_s =
      timed "setup" (fun () ->
          List.map (fun (e, reqs) -> (e, reqs, boot e)) streams)
    in
    let each f =
      List.iter
        (fun ((e : Apps.Registry.entry), reqs, server) ->
          f e.Apps.Registry.r_key reqs server)
        booted
    in
    for i = 0 to warm - 1 do
      each (fun key reqs server -> ignore (benign ck scratch key server reqs.(i)))
    done;
    let servers = List.map (fun (_, _, s) -> s) booted in
    let procs = List.map (fun s -> s.Osim.Server.proc) servers in
    let vm0 = vm_work procs and ck0 = checkpoints servers in
    let t0 = Stats.now () in
    for i = warm to warm + per_app - 1 do
      each (fun key reqs server -> ignore (benign ck hist key server reqs.(i)))
    done;
    let benign_s = Stats.now () -. t0 in
    {
      setup_s;
      response_ms = None;
      benign = per_app * List.length booted;
      benign_s;
      counters =
        diff_counters (vm_work procs) vm0
        @ vm_footprint procs
        @ [ ("osim.checkpoints", checkpoints servers - ck0) ];
      details = [];
    }
  in
  let units, wall_s = repeat cfg ~warmup:(session scratch) (session hist) in
  let p q = Stats.Hist.percentile hist q *. 1000. in
  {
    units;
    attempted = ck.attempted;
    failed = ck.failed;
    failures = ck.why;
    wall_s;
    response =
      { Stats.median = p 50.; p25 = p 25.; p75 = p 75.; n = hist.Stats.Hist.total };
    details = tail_detail hist;
    shard_of_server = Hashtbl.create 1;
  }

(* ------------------------------------------------------------------ *)
(* attack: exploit, analysis, antibody, recovery on fresh processes.  *)
(* ------------------------------------------------------------------ *)

(* Pipeline stage names, as spans and timings carry them, and the short
   keys the per-layer metrics use. *)
let stage_keys =
  [ ("static-prefilter", "static_prefilter");
    ("Memory State Analysis", "memory_state");
    ("Memory Bug Detection", "memory_bug");
    ("Input/Taint Analysis", "taint");
    ("Input Isolation", "isolation");
    ("Dynamic Slicing", "slicing") ]

(* [n] benign requests from the seed's stream with the stream's mix: one
   from the middle of each [n]th of a 16n-request stream sorted by
   length, kept in stream order. Request kinds differ in length and cost
   (a squid ftp request costs 8x an http one), so the first [n] requests
   of a stream would make the round's cost depend on the seed's draw. *)
let representative ~seed key n =
  let pool = Array.of_list (Apps.Registry.workload ~seed key (16 * n)) in
  let by_length = Array.init (Array.length pool) Fun.id in
  Array.stable_sort
    (fun a b -> compare (String.length pool.(a)) (String.length pool.(b)))
    by_length;
  List.init n (fun k -> by_length.((16 * k) + 8))
  |> List.sort compare
  |> List.map (fun i -> pool.(i))

(* One app's share of an attack round: 20 benign requests, the canonical
   exploit (with a wrong address guess, so the monitors trip and the full
   analysis runs), a polymorphic variant the antibody must stop, then 5
   benign requests that must be served. *)
let attack_app ck hist (e : Apps.Registry.entry) ~seed =
  let key = e.Apps.Registry.r_key in
  let server, setup_s = timed "setup" (fun () -> boot e) in
  let benign_s = ref 0. in
  let serve_all l =
    List.iter (fun m -> benign_s := !benign_s +. benign ck hist key server m) l
  in
  serve_all (representative ~seed key 20);
  let exploit = Apps.Registry.exploit ~system_guess:0x12345678 ~cmd_ptr:0 key in
  let t0 = Stats.now () in
  let outcomes = List.map (handle key server) exploit.Apps.Exploits.x_messages in
  let respond_ms = (Stats.now () -. t0) *. 1000. in
  let report = List.find_map (function `Attack r -> Some r | _ -> None) outcomes in
  check ck (report <> None) (fun () ->
      Printf.sprintf "%s: exploit was not analyzed (%s)" key
        (String.concat "," (List.map outcome_name outcomes)));
  let variant =
    List.nth (Apps.Exploits.variants ~system_guess:0x23456789 ~cmd_ptr:0 key) 1
  in
  let voutcomes = List.map (handle key server) variant.Apps.Exploits.x_messages in
  check ck
    (List.exists
       (function `Blocked_by_vsef _ | `Filtered _ -> true | _ -> false)
       voutcomes
    && not
         (List.exists
            (function `Attack _ | `Compromised -> true | _ -> false)
            voutcomes))
    (fun () ->
      Printf.sprintf "%s: variant not blocked (%s)" key
        (String.concat "," (List.map outcome_name voutcomes)));
  serve_all (representative ~seed:(seed + 1) key 5);
  let stage_instructions =
    List.map
      (fun (span_name, k) ->
        ( "stage." ^ k ^ ".instructions",
          match report with
          | None -> 0
          | Some rp ->
            List.fold_left
              (fun acc (t : Sweeper.Orchestrator.stage_timing) ->
                if t.Sweeper.Orchestrator.st_name = span_name then
                  acc + t.Sweeper.Orchestrator.st_instructions
                else acc)
              0 rp.Sweeper.Orchestrator.a_timings ))
      stage_keys
  in
  {
    setup_s;
    response_ms = Some respond_ms;
    benign = 25;
    benign_s = !benign_s;
    counters =
      vm_work [ server.Osim.Server.proc ]
      @ vm_footprint [ server.Osim.Server.proc ]
      @ [ ("osim.checkpoints", Osim.Server.checkpoints_taken server) ]
      @ stage_instructions;
    details =
      [ ( "first_vsef_ms",
          "ms",
          match report with
          | Some rp -> rp.Sweeper.Orchestrator.a_time_to_first_vsef_ms
          | None -> 0. ) ];
  }

(* Add up per-app results into one round: times and counts sum. *)
let sum_units = function
  | [] -> invalid_arg "sum_units"
  | u :: rest ->
    let add a b = List.map (fun (k, v) -> (k, v + List.assoc k b)) a in
    let addf a b =
      List.map2 (fun (k, u, v) (_, _, w) -> (k, u, v +. w)) a b
    in
    List.fold_left
      (fun acc u ->
        {
          setup_s = acc.setup_s +. u.setup_s;
          response_ms =
            Option.map (fun a -> a +. Option.value ~default:0. u.response_ms)
              acc.response_ms;
          benign = acc.benign + u.benign;
          benign_s = acc.benign_s +. u.benign_s;
          counters = add acc.counters u.counters;
          details = addf acc.details u.details;
        })
      u rest

(* A round attacks all four apps, each on a fresh process; rounds repeat
   the same work exactly. *)
let attack cfg =
  let ck = checks () in
  let hist = Stats.Hist.create () in
  let round hist () =
    sum_units
      (List.map (fun e -> attack_app ck hist e ~seed:cfg.seed) Apps.Registry.all)
  in
  let units, wall_s =
    repeat cfg ~warmup:(round (Stats.Hist.create ())) (round hist)
  in
  {
    units;
    attempted = ck.attempted;
    failed = ck.failed;
    failures = ck.why;
    wall_s;
    response =
      Stats.summarize (List.filter_map (fun u -> u.response_ms) units);
    details = median_details units @ tail_detail hist;
    shard_of_server = Hashtbl.create 1;
  }

(* ------------------------------------------------------------------ *)
(* outbreak / population: a sharded community under benign load is    *)
(* attacked; a trial ends when every uninfected host runs the          *)
(* antibody.                                                           *)
(* ------------------------------------------------------------------ *)

type community = {
  hosts : int;
  producers : int;
  benign_per_round : int;
  outbreak : bool;
      (** an aimed exploit starts an infection and infected hosts probe;
          otherwise only blind probes arrive *)
  scan_every : int;  (** the first blind scan reaches every [scan_every]th host *)
}

let shards = 4
let max_rounds = 15

(* The shards run on one domain. On a 2-vCPU shared machine, 2-domain
   rounds varied by 20-30% between identical runs (every minor GC stops
   both domains, and both vCPUs are then busy), more than any regression
   bound could absorb; one domain varied by about 4%. *)
let domains = 1

(* An aimed probe carries the victim's true layout: it infects unless an
   antibody stops it. A blind one guesses libc's address and crashes the
   victim; on a producer, the crash starts the analysis. *)
let aimed (dst : D.host) =
  let proc = dst.D.h_proc in
  (Apps.Exploits.apache1_against
     ~system_guess:(Osim.Process.system_addr proc)
     ~reqbuf_addr:(Hashtbl.find proc.Osim.Process.data_symbols "reqbuf")
     ())
    .Apps.Exploits.x_messages

let blind rng =
  let guess = 0x4f770000 + (Random.State.int rng 4096 * 4096) + 0x15a0 in
  (Apps.Exploits.apache1_against ~system_guess:guess ~reqbuf_addr:0x08100000 ())
    .Apps.Exploits.x_messages

(* The attack traffic of round [round], keyed by victim, built from the
   previous round's infected set and (seed, round, host) only. Round 2
   brings patient zero (in an outbreak: an aimed exploit at a consumer
   whose libc address the exploit can encode) and the worm's first blind
   scan, which reaches every [scan_every]th host. Host 0 is a producer,
   so the analysis starts in round 2 on every seed and a trial's length
   does not depend on the seed's luck. In an outbreak every infected host
   then probes 2 random hosts per round, half of the probes aimed. *)
let attack_traffic cc ~seed hosts round =
  let n = Array.length hosts in
  let tbl = Hashtbl.create 64 in
  let add (dst : D.host) src msgs =
    let prev = Option.value ~default:[] (Hashtbl.find_opt tbl dst.D.h_id) in
    Hashtbl.replace tbl dst.D.h_id (prev @ List.map (fun m -> (src, m)) msgs)
  in
  if round = 2 then begin
    let rng = Random.State.make [| seed; 0x5EED |] in
    if cc.outbreak then begin
      let consumers = n - cc.producers in
      let start = Random.State.int rng consumers in
      let victim =
        List.init consumers (fun k ->
            hosts.(cc.producers + ((start + k) mod consumers)))
        |> List.find (fun (h : D.host) ->
               Apps.Exploits.encodable (Osim.Process.system_addr h.D.h_proc))
      in
      add victim (-1) (aimed victim)
    end;
    Array.iter
      (fun (h : D.host) ->
        if h.D.h_id mod cc.scan_every = 0 then add h (-1) (blind rng))
      hosts
  end
  else if round > 2 && cc.outbreak then
    Array.iter
      (fun (src : D.host) ->
        if src.D.h_infected then begin
          let rng = Random.State.make [| seed; 0x3072; src.D.h_id; round |] in
          for _ = 1 to 2 do
            let dst = hosts.(Random.State.int rng n) in
            let accurate = Random.State.bool rng in
            if dst.D.h_id <> src.D.h_id then
              add dst src.D.h_id (if accurate then aimed dst else blind rng)
          done
        end)
      hosts;
  tbl

let protected (hosts : D.host array) =
  Array.for_all (fun h -> h.D.h_infected || h.D.h_deployed >= 1) hosts

let outputs (hosts : D.host array) =
  Array.fold_left
    (fun acc h -> acc + List.length (Osim.Process.committed_outputs h.D.h_proc))
    0 hosts

(* Virtual time from the first crash or infection to the moment the last
   shard held the antibody (its first publication or adoption; each
   shard records exactly one of these). *)
let protect_vms (s : Sh.summary) =
  let first_hit =
    List.find_map
      (fun (vt, _, kind) ->
        if kind = "crashed" || kind = "infected" then Some vt else None)
      s.Sh.sm_events
  in
  let armed =
    List.filter_map
      (fun (vt, _, kind) ->
        if kind = "antibody-published" || kind = "antibody-adopted" then Some vt
        else None)
      s.Sh.sm_events
  in
  match first_hit with
  | Some t0 when List.length armed = s.Sh.sm_shards ->
    Some (List.fold_left Float.max t0 armed -. t0)
  | _ -> None

let sample_total name samples =
  List.fold_left
    (fun acc (s : Obs.Metrics.sample) ->
      if s.Obs.Metrics.s_name <> name then acc
      else
        match s.Obs.Metrics.s_value with
        | Obs.Metrics.Sample_counter n -> acc + n
        | Obs.Metrics.Sample_gauge g -> acc + int_of_float g
        | Obs.Metrics.Sample_histogram _ -> acc)
    0 samples

let community_trial cc cfg ck shard_of_server () =
  let app = Apps.Registry.find "apache1" in
  let c, setup_s =
    timed "community_create" (fun () ->
        Sh.create ~domains ~shards ~topology:Osim.Cluster.Uniform
          ~app:"apache1" ~compile:app.Apps.Registry.r_compile ~n:cc.hosts
          ~producers:cc.producers ~seed:layout_seed ())
  in
  let hosts = Array.of_list (Sh.hosts c) in
  Array.iter
    (fun (h : D.host) ->
      Hashtbl.replace shard_of_server h.D.h_server.Osim.Server.id
        (Osim.Cluster.place Osim.Cluster.Uniform ~shards ~host:h.D.h_id))
    hosts;
  let pool = Array.of_list (Apps.Registry.workload ~seed:cfg.seed "apache1" 64) in
  let benign_for round (h : D.host) =
    List.init cc.benign_per_round (fun k ->
        (-1, pool.((h.D.h_id + (round * 7) + k) mod Array.length pool)))
  in
  let posted = ref 0 and round_s = ref 0. in
  let protect_start = ref 0. and protect_end = ref None in
  let procs = Array.to_list (Array.map (fun h -> h.D.h_proc) hosts) in
  let vm0 = vm_work procs in
  let round = ref 1 in
  while !protect_end = None && !round <= max_rounds do
    let r = !round in
    let attacks = attack_traffic cc ~seed:cfg.seed hosts r in
    if r = 2 then protect_start := Stats.now ();
    span "post_traffic" (fun () ->
        Sh.post_traffic_from c ~traffic:(fun h ->
            let b = benign_for r h in
            posted := !posted + List.length b;
            b @ Option.value ~default:[] (Hashtbl.find_opt attacks h.D.h_id)));
    let (_ : Osim.Cluster.stats), dt = timed "run_round" (fun () -> Sh.run_round c) in
    round_s := !round_s +. dt;
    if r >= 2 && span "check" (fun () -> protected hosts) then
      protect_end := Some (Stats.now ());
    incr round
  done;
  check ck (!protect_end <> None) (fun () ->
      Printf.sprintf "community not protected after %d rounds" max_rounds);
  let s =
    span "check" (fun () ->
        let served = outputs hosts in
        tally ck ~n:!posted ~bad:(abs (!posted - served)) (fun () ->
            Printf.sprintf "%d of %d benign requests served" served !posted);
        if cc.outbreak then
          check ck
            (Forensics.check
               (Forensics.reconstruct (Forensics.of_sharded c))
               (Forensics.ground_truth c)
            = Ok ())
            (fun () -> "forensic reconstruction differs from the ground truth");
        Sh.summary c)
  in
  let merged = Sh.merged_metrics c in
  let vms = protect_vms s in
  check ck (vms <> None) (fun () -> "a shard never received the antibody");
  let infected_pct =
    100. *. float_of_int s.Sh.sm_infected_hosts /. float_of_int cc.hosts
  in
  (* An outbreak must stay below the paper's 5%; blind probes alone must
     infect nobody, so every host ends up protected. *)
  check ck
    (if cc.outbreak then infected_pct < 5. else s.Sh.sm_infected_hosts = 0)
    (fun () -> Printf.sprintf "%.2f%% of hosts infected" infected_pct);
  let protect_ms =
    1000. *. (Option.value ~default:(Stats.now ()) !protect_end -. !protect_start)
  in
  {
    setup_s;
    response_ms = Some protect_ms;
    benign = !posted;
    benign_s = !round_s;
    counters =
      diff_counters (vm_work procs) vm0
      @ vm_footprint procs
      @ [ ("rounds", !round - 1);
          ("osim.checkpoints",
           checkpoints (Array.to_list (Array.map (fun h -> h.D.h_server) hosts)));
          ("sched.instructions", s.Sh.sm_instructions);
          ("sched.turns", sample_total "sweeper_sched_steps" merged);
          ("sched.parks", sample_total "sweeper_sched_parks" merged);
          ("cluster.windows", s.Sh.sm_windows);
          ("cluster.exchanged", s.Sh.sm_exchanged);
          ("cluster.deferred", s.Sh.sm_deferred);
          ("defense.attempts", s.Sh.sm_attempts);
          ("defense.crashes", s.Sh.sm_crashes);
          ("defense.blocked", s.Sh.sm_blocked);
          ("defense.analyses", s.Sh.sm_analyses);
          ("defense.adoptions", List.length s.Sh.sm_adoptions);
          ("defense.rejected",
           sample_total "sweeper_antibody_rejected_total" merged);
          ("infected_hosts", s.Sh.sm_infected_hosts);
          ("protect_vus",
           int_of_float (Float.round (Option.value ~default:0. vms *. 1000.))) ];
    details =
      [ ("protect_wall_ms", "ms", protect_ms);
        ("protect_vms", "ms", Option.value ~default:0. vms);
        ("infected_pct", "%", infected_pct) ];
  }

let run_community cc cfg =
  let ck = checks () in
  let shard_of_server = Hashtbl.create 1024 in
  let trial = community_trial cc cfg ck shard_of_server in
  let units, wall_s = repeat cfg ~warmup:trial trial in
  {
    units;
    attempted = ck.attempted;
    failed = ck.failed;
    failures = ck.why;
    wall_s;
    response =
      Stats.summarize (List.filter_map (fun u -> u.response_ms) units);
    details = median_details units;
    shard_of_server;
  }

(* Outbreak: 1000 hosts, 10 producers, 4 benign requests per host per
   round, so serving dominates. Population: 2000 hosts, 20 producers, 1
   request per host per round and no infection, so host creation and
   memory dominate. *)
let outbreak cfg =
  run_community
    { hosts = (if cfg.smoke then 60 else 1000);
      producers = (if cfg.smoke then 2 else 10);
      benign_per_round = 4; outbreak = true;
      scan_every = (if cfg.smoke then 10 else 100) }
    cfg

let population cfg =
  run_community
    { hosts = (if cfg.smoke then 120 else 2000);
      producers = (if cfg.smoke then 4 else 20);
      benign_per_round = 1; outbreak = false; scan_every = 50 }
    cfg

let all =
  [ ("serve", serve); ("attack", attack); ("outbreak", outbreak);
    ("population", population) ]
