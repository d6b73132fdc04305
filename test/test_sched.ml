(* Tests for the cooperative scheduler: interleaving N hosts must be
   observationally identical to running them sequentially — same committed
   outputs, same instruction counts, same checkpoint schedule — including
   when one host is attacked mid-stream while the others serve benign
   traffic. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let compiled = lazy ((Apps.Registry.find "apache1").r_compile ())

let boot seed =
  let proc = Osim.Process.load ~aslr:true ~seed (Lazy.force compiled) in
  let server = Osim.Server.create proc in
  ignore (Osim.Server.run server);
  (proc, server)

let workload n = Apps.Registry.workload "apache1" n

(* Everything observable about a host after its stream was served. *)
type obs = {
  o_outputs : (int * string) list;
  o_served : int;
  o_icount : int;
  o_cursor : int;
  o_checkpoints : int;
  o_latest_ck : int;  (** icount of the newest ring checkpoint *)
}

let observe (proc : Osim.Process.t) (server : Osim.Server.t) ~served =
  {
    o_outputs = Osim.Process.committed_outputs proc;
    o_served = served;
    o_icount = proc.Osim.Process.cpu.Vm.Cpu.icount;
    o_cursor = Osim.Netlog.cursor proc.Osim.Process.net;
    o_checkpoints = Osim.Server.checkpoints_taken server;
    o_latest_ck =
      (match Osim.Checkpoint.latest server.Osim.Server.ring with
      | Some ck -> ck.Osim.Checkpoint.ck_icount
      | None -> -1);
  }

(* One server per stream, each stream served to completion in turn. *)
let run_sequential streams =
  List.mapi
    (fun i msgs ->
      let proc, server = boot (1000 + i) in
      let served = ref 0 in
      List.iter
        (fun m ->
          match Osim.Server.handle server m with
          | `Served _ -> incr served
          | _ -> Alcotest.failf "sequential host %d: message not served" i)
        msgs;
      observe proc server ~served:!served)
    streams

(* Same servers, same streams, interleaved on the scheduler. Benign
   traffic never parks a task. *)
let run_interleaved ?quantum streams =
  let sched = Osim.Sched.create ?quantum () in
  let hosts =
    List.mapi
      (fun i msgs ->
        let proc, server = boot (1000 + i) in
        let task = Osim.Sched.add sched server in
        List.iter (Osim.Sched.post sched task) msgs;
        (proc, server, task))
      streams
  in
  Osim.Sched.run sched;
  check_int "no task parked" 0 (Osim.Sched.parks sched);
  List.map
    (fun (proc, server, task) ->
      observe proc server ~served:task.Osim.Sched.sk_served)
    hosts

let streams4 = [ workload 3; workload 5; workload 2; workload 4 ]

let test_interleaved_matches_sequential () =
  let seq = run_sequential streams4 in
  let inter = run_interleaved ~quantum:500 streams4 in
  List.iteri
    (fun i (a, b) ->
      check_int (Printf.sprintf "host %d served" i) a.o_served b.o_served;
      check_int (Printf.sprintf "host %d icount" i) a.o_icount b.o_icount;
      check_int (Printf.sprintf "host %d cursor" i) a.o_cursor b.o_cursor;
      check_int
        (Printf.sprintf "host %d checkpoints" i)
        a.o_checkpoints b.o_checkpoints;
      check_int
        (Printf.sprintf "host %d latest ck icount" i)
        a.o_latest_ck b.o_latest_ck;
      check_bool (Printf.sprintf "host %d outputs" i) true
        (a.o_outputs = b.o_outputs))
    (List.combine seq inter)

let test_quantum_invariance () =
  (* Slicing the same work into different quanta cannot change anything:
     tiny slices, odd slices, and one slice per stream all agree. *)
  let a = run_interleaved ~quantum:137 streams4 in
  let b = run_interleaved ~quantum:2_000 streams4 in
  let c = run_interleaved ~quantum:10_000_000 streams4 in
  check_bool "137 = 2000" true (a = b);
  check_bool "2000 = whole-stream" true (b = c)

let test_virtual_clock_advances () =
  let sched = Osim.Sched.create ~quantum:500 () in
  let _, server = boot 77 in
  let task = Osim.Sched.add sched server in
  List.iter (Osim.Sched.post sched task) (workload 4);
  Osim.Sched.run sched;
  check_bool "instructions counted" true (Osim.Sched.instructions sched > 0);
  check_bool "took several turns" true (Osim.Sched.steps sched > 1);
  check_bool "virtual clock moved" true (Osim.Sched.vclock_ms sched > 0.);
  check_bool "task clock matches global" true
    (Osim.Sched.vtime_ms task <= Osim.Sched.vclock_ms sched +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Mid-stream attack: one host is exploited while the others serve     *)
(* benign traffic; every host of the community must end in the same   *)
(* state as serving its stream alone, through the full protected       *)
(* pipeline, at the same layout seed.                                  *)
(* ------------------------------------------------------------------ *)

module Sh = Sweeper.Defense.Sharded

let benign = workload 3

let attack_stream =
  benign
  @ (Apps.Registry.exploit ~system_guess:0x12345678 ~cmd_ptr:0 "apache1")
      .Apps.Exploits.x_messages
  @ workload 2

let stream_of id = if id = 0 then attack_stream else benign

(* A host still answers a trivial request. *)
let serves (h : Sweeper.Defense.host) =
  match Osim.Server.handle h.Sweeper.Defense.h_server "noop" with
  | `Served _ | `Stopped -> true
  | `Filtered _ | `Crashed _ | `Infected _ -> false

let test_mid_stream_attack_matches_sequential () =
  let seed = 8100 in
  let entry = Apps.Registry.find "apache1" in
  let c =
    Sh.create ~app:"apache1" ~compile:entry.r_compile ~n:3 ~producers:1 ~seed
      ()
  in
  Sh.post_traffic c ~traffic:(fun h -> stream_of h.Sweeper.Defense.h_id);
  ignore (Sh.run_round c);
  let s = Sh.summary c in
  (* The reference: host [id] alone at template seed [seed + id]. *)
  let attacks = ref 0 and blocked = ref 0 and compromised = ref 0 in
  let reference id =
    let proc, server = boot (seed + id) in
    List.iter
      (fun m ->
        match Sweeper.Orchestrator.protected_handle ~app:"apache1" server m with
        | `Attack _ -> incr attacks
        | `Blocked_by_vsef _ | `Filtered _ -> incr blocked
        | `Compromised -> incr compromised
        | `Served _ | `Stopped -> ())
      (stream_of id);
    (id, Osim.Process.committed_outputs proc)
  in
  let outputs = List.init 3 reference in
  check_int "nobody infected" 0 s.Sh.sm_infected_hosts;
  check_bool "identical per-host outputs" true (outputs = s.Sh.sm_outputs);
  check_int "every message attempted"
    (List.length attack_stream + (2 * List.length benign))
    s.Sh.sm_attempts;
  check_int "same crashes" !attacks s.Sh.sm_crashes;
  check_int "same analyses" !attacks s.Sh.sm_analyses;
  check_int "same blocked" !blocked s.Sh.sm_blocked;
  check_int "same infections" !compromised s.Sh.sm_infections;
  check_bool "antibody published" true
    (s.Sh.sm_first_antibody_vtime_ms <> None);
  check_bool "community still serves" true (List.for_all serves (Sh.hosts c))

(* ------------------------------------------------------------------ *)

let prop_interleaving_is_invisible =
  QCheck.Test.make ~count:6
    ~name:"random quanta and stream lengths match sequential runs"
    QCheck.(triple (int_range 60 5_000) (int_range 1 5) (int_range 1 5))
    (fun (quantum, n1, n2) ->
      let streams = [ workload n1; workload n2 ] in
      run_interleaved ~quantum streams = run_sequential streams)

(* ------------------------------------------------------------------ *)
(* Domain-sharded community: running the same shard partition on N     *)
(* domains must be bit-identical to running it on one — outputs,       *)
(* icounts, the infection/crash event log, and the first-antibody      *)
(* virtual time. This is the differential oracle for Osim.Cluster.     *)
(* ------------------------------------------------------------------ *)

(* Attack bytes as a pure function of (seed, host, round): both runs of
   an oracle pair see byte-identical traffic regardless of sharding. *)
let attack_for ~seed ~round (h : Sweeper.Defense.host) =
  let rng =
    Random.State.make [| seed; 0xA77AC4; h.Sweeper.Defense.h_id; round |]
  in
  let guess = 0x4f770000 + (Random.State.int rng 4096 * 4096) + 0x15a0 in
  (Apps.Exploits.apache1_against ~system_guess:guess ~reqbuf_addr:0x08100000 ())
    .Apps.Exploits.x_messages

let run_sharded ?outbox_limit ?mailbox_limit ~domains ~shards ~topology ~n
    ~producers ~seed ~rounds () =
  let entry = Apps.Registry.find "apache1" in
  let c =
    Sh.create ?outbox_limit ?mailbox_limit ~domains ~shards ~topology
      ~app:"apache1" ~compile:entry.r_compile ~n ~producers ~seed ()
  in
  for round = 1 to rounds do
    (* Round 1 is a mid-stream attack: benign, exploit, benign. *)
    Sh.post_traffic c ~traffic:(fun h ->
        if round = 1 then workload 2 @ attack_for ~seed ~round h @ workload 1
        else attack_for ~seed ~round h);
    ignore (Sh.run_round c)
  done;
  Sh.summary c

(* Everything except the domain count itself must agree. *)
let oracle_agrees a b = { a with Sh.sm_domains = 0 } = { b with Sh.sm_domains = 0 }

let test_sharded_matches_single_domain () =
  let go domains =
    run_sharded ~domains ~shards:2 ~topology:Osim.Cluster.Uniform ~n:6
      ~producers:1 ~seed:4242 ~rounds:2 ()
  in
  let one = go 1 and two = go 2 in
  check_int "same windows" one.Sh.sm_windows two.Sh.sm_windows;
  check_int "same attempts" one.Sh.sm_attempts two.Sh.sm_attempts;
  check_bool "attack did something" true
    (one.Sh.sm_crashes + one.Sh.sm_blocked + one.Sh.sm_infections > 0);
  check_bool "antibody published" true
    (one.Sh.sm_first_antibody_vtime_ms <> None);
  check_bool "cross-shard mail flowed" true (one.Sh.sm_exchanged > 0);
  check_bool "sharded(2) = sharded(1)" true (oracle_agrees one two)

let prop_sharded_oracle =
  QCheck.Test.make ~count:4
    ~name:"sharded(N domains) = single domain over random topologies"
    QCheck.(triple (int_range 4 7) (int_range 0 2) (int_range 0 1_000_000))
    (fun (n, topo_idx, seed) ->
      let topology =
        match topo_idx with
        | 0 -> Osim.Cluster.Uniform
        | 1 -> Osim.Cluster.Subnet 2
        | _ -> Osim.Cluster.Overlay 3
      in
      let go domains =
        run_sharded ~domains ~shards:2 ~topology ~n ~producers:1 ~seed
          ~rounds:2 ()
      in
      oracle_agrees (go 1) (go 2))

(* Mailbox overflow and outbox backpressure: with the tightest possible
   bounds the run still completes, nothing is dropped (every posted
   message is eventually attempted), and the oracle still holds — bounds
   only reshape scheduling pauses, never results. *)
let test_backpressure_and_mailbox_bounds () =
  let go domains =
    run_sharded ~outbox_limit:1 ~mailbox_limit:1 ~domains ~shards:2
      ~topology:Osim.Cluster.Uniform ~n:6 ~producers:1 ~seed:9001 ~rounds:2 ()
  in
  let tight = go 1 in
  check_bool "outbox bound hit" true (tight.Sh.sm_backpressures > 0);
  check_bool "every message attempted" true (tight.Sh.sm_attempts > 0);
  check_bool "run reached quiescence with bounds" true (tight.Sh.sm_windows > 0);
  check_bool "oracle holds under tight bounds" true (oracle_agrees tight (go 2))

(* A merged sample's value, by metric name and labels. *)
let merged_value c ?(labels = []) name =
  List.find_map
    (fun (m : Obs.Metrics.sample) ->
      if m.Obs.Metrics.s_name = name && m.Obs.Metrics.s_labels = labels then
        match m.Obs.Metrics.s_value with
        | Obs.Metrics.Sample_counter n -> Some (float_of_int n)
        | Obs.Metrics.Sample_gauge v -> Some v
        | Obs.Metrics.Sample_histogram _ -> None
      else None)
    (Sh.merged_metrics c)

(* Merging sums per-shard registries, but the two community clocks are
   not sums: on 4 shards the merged virtual clock is the latest shard
   clock (after benign traffic, the furthest any host got) and the
   first-antibody gauge is the summary's first publication vtime. *)
let test_merged_clock_gauges () =
  let entry = Apps.Registry.find "apache1" in
  let c =
    Sh.create ~shards:4 ~topology:Osim.Cluster.Uniform ~app:"apache1"
      ~compile:entry.r_compile ~n:16 ~producers:2 ~seed:4242 ()
  in
  let icount (h : Sweeper.Defense.host) =
    h.Sweeper.Defense.h_proc.Osim.Process.cpu.Vm.Cpu.icount
  in
  let hosts = Sh.hosts c in
  let booted = List.map icount hosts in
  Sh.post_traffic c ~traffic:(fun _ -> workload 3);
  ignore (Sh.run_round c);
  let latest =
    List.fold_left2
      (fun acc h i0 ->
        Float.max acc
          (float_of_int (icount h - i0) /. float_of_int Osim.Server.instrs_per_ms))
      0. hosts booted
  in
  let gauge = Alcotest.(option (float 0.)) in
  check gauge "clock = latest host clock" (Some latest)
    (merged_value c "sweeper_sched_vclock_ms");
  check gauge "no antibody yet" (Some (-1.))
    (merged_value c "sweeper_community_first_antibody_ms");
  Sh.post_traffic c ~traffic:(attack_for ~seed:4242 ~round:1);
  ignore (Sh.run_round c);
  let first = (Sh.summary c).Sh.sm_first_antibody_vtime_ms in
  check_bool "antibody published" true (first <> None);
  check gauge "first antibody = summary vtime" first
    (merged_value c "sweeper_community_first_antibody_ms")

(* The rejection reason of an "antibody-rejected:<reason>[ <detail>]"
   event kind: the text after the colon, up to the first space. *)
let rejection_reason kind =
  let prefix = "antibody-rejected:" in
  if String.starts_with ~prefix kind then
    let n = String.length prefix in
    let rest = String.sub kind n (String.length kind - n) in
    Some (List.hd (String.split_on_char ' ' rest))
  else None

(* The supply-chain surface: a malicious producer broadcasts fabricated
   antibodies, one per rejection bar. Every shard's publication
   validation must reject each under its own reason, counted and logged
   per shard, and a static rejection must name the offending VSEF with
   its location; a legitimately analyzed bundle from real attack traffic
   must still be adopted.
   - static-infeasible: a Store_guard at a statically proven-safe store,
     where no CFG-following execution can overflow;
   - pcs-outside-S: a Taint_filter propagating at a pc outside the
     static may-propagate set S;
   - replay-failed: a bundle whose "exploit" is an innocent request,
     which sandbox verification (on) replays without a fault. *)
let test_malicious_antibody_round () =
  let entry = Apps.Registry.find "apache1" in
  let c =
    Sh.create ~verify_before_deploy:true ~domains:1 ~shards:2
      ~topology:Osim.Cluster.Uniform ~app:"apache1" ~compile:entry.r_compile
      ~n:6 ~producers:1 ~seed:4242 ()
  in
  (* Fabricate against a reference copy. *)
  let proc = Osim.Process.load ~aslr:true ~seed:97 (entry.r_compile ()) in
  let ai = proc.Osim.Process.absint in
  let staint = Static_an.Staint.analyze proc.Osim.Process.cpu.Vm.Cpu.code in
  let first_access p =
    let found = ref None in
    Static_an.Absint.iter_accesses ai (fun pc cls ->
        if !found = None && p pc cls then found := Some pc);
    match !found with
    | Some pc -> Sweeper.Vsef.loc_of_pc proc pc
    | None -> Alcotest.fail "no suitable access in apache1"
  in
  let safe_store =
    first_access (fun _ cls ->
        match cls with Static_an.Absint.Proven _ -> true | _ -> false)
  in
  let outside_s =
    first_access (fun pc _ -> not (Static_an.Staint.may_propagate staint pc))
  in
  let fabricated name check =
    {
      Sweeper.Antibody.ab_app = "apache1";
      ab_stage = Sweeper.Antibody.Refined;
      ab_vsefs =
        [
          {
            Sweeper.Vsef.v_name = name;
            v_app = "apache1";
            v_check = check;
            v_origin = Sweeper.Vsef.From_membug;
          };
        ];
      ab_signature = None;
      ab_exploit_input = None;
    }
  in
  let bundles =
    [
      ( "static-infeasible",
        fabricated "fabricated-store-guard"
          (Sweeper.Vsef.Store_guard { store = safe_store }) );
      ( "pcs-outside-S",
        fabricated "fabricated-taint-filter"
          (Sweeper.Vsef.Taint_filter
             { source_sysno = 0; prop = [ outside_s ]; sink = outside_s }) );
      ( "replay-failed",
        {
          Sweeper.Antibody.ab_app = "apache1";
          ab_stage = Sweeper.Antibody.Full;
          ab_vsefs = [];
          ab_signature = None;
          ab_exploit_input = Some [ "GET /innocent\n" ];
        } );
    ]
  in
  List.iter (fun (_, ab) -> Sh.inject_antibody c ab) bundles;
  ignore (Sh.run_round c);
  let s = Sh.summary c in
  let rejections =
    List.filter_map
      (fun (_, host, kind) ->
        if String.starts_with ~prefix:"antibody-rejected" kind then
          Some (host, kind)
        else None)
      s.Sh.sm_events
  in
  check_int "each bundle rejected on every shard" 6 (List.length rejections);
  List.iter
    (fun (reason, _) ->
      check_int
        (reason ^ " recorded once per shard, as received")
        2
        (List.length
           (List.filter
              (fun (host, kind) ->
                host = -1 && rejection_reason kind = Some reason)
              rejections)))
    bundles;
  List.iter
    (fun (kind, vsef, loc) ->
      let named = kind ^ " " ^ vsef ^ "@" ^ Sweeper.Vsef.default_describe loc in
      check_int (named ^ " on every shard") 2
        (List.length (List.filter (fun (_, k) -> k = named) rejections)))
    [
      ( "antibody-rejected:static-infeasible", "fabricated-store-guard",
        safe_store );
      ("antibody-rejected:pcs-outside-S", "fabricated-taint-filter", outside_s);
    ];
  check_bool "no shard adopted a fabrication" true (s.Sh.sm_adoptions = []);
  check_bool "no antibody installed anywhere" true
    (s.Sh.sm_first_antibody_vtime_ms = None);
  List.iter
    (fun (reason, _) ->
      check
        Alcotest.(option (float 0.))
        (reason ^ " counter = one per shard")
        (Some 2.)
        (merged_value c ~labels:[ ("reason", reason) ]
           "sweeper_antibody_rejected_total"))
    bundles;
  (* A real attack round on the same community must still mint, verify
     and adopt a legitimate antibody — the rejection bars are not a
     denial of service. *)
  Sh.post_traffic c ~traffic:(fun h ->
      workload 2 @ attack_for ~seed:4242 ~round:1 h @ workload 1);
  ignore (Sh.run_round c);
  let s2 = Sh.summary c in
  check_bool "legitimate antibody published" true
    (s2.Sh.sm_first_antibody_vtime_ms <> None);
  check_bool "another shard adopted it" true (s2.Sh.sm_adoptions <> [])

(* A producer's own bundle faces the same bars. Here the reference copy
   the shard validates against is apache2 while the hosts run apache1,
   so the producer's honest apache1 bundle is rejected: the record must
   name the producer and a reason the rejection counter agrees with. *)
let test_producer_rejection_recorded () =
  let calls = ref 0 in
  let compile () =
    incr calls;
    let key = if !calls = 1 then "apache1" else "apache2" in
    (Apps.Registry.find key).r_compile ()
  in
  let c =
    Sh.create ~domains:1 ~shards:1 ~topology:Osim.Cluster.Uniform
      ~app:"apache1" ~compile ~n:2 ~producers:1 ~seed:4242 ()
  in
  Sh.post_traffic c ~traffic:(fun h ->
      workload 2 @ attack_for ~seed:4242 ~round:1 h @ workload 1);
  ignore (Sh.run_round c);
  let s = Sh.summary c in
  let rejections =
    List.filter_map
      (fun (_, host, kind) ->
        Option.map (fun reason -> (host, reason)) (rejection_reason kind))
      s.Sh.sm_events
  in
  check_bool "the producer's bundle was rejected" true (rejections <> []);
  check_bool "nothing published" true (s.Sh.sm_first_antibody_vtime_ms = None);
  List.iter
    (fun (host, reason) ->
      check_int (reason ^ ": recorded under the producer") 0 host;
      check
        Alcotest.(option (float 0.))
        (reason ^ ": counter agrees with the record")
        (Some
           (float_of_int
              (List.length (List.filter (fun (_, r) -> r = reason) rejections))))
        (merged_value c ~labels:[ ("reason", reason) ]
           "sweeper_antibody_rejected_total"))
    rejections

(* Deterministic qcheck runs by default; QCHECK_SEED overrides. *)
let qcheck_rand () =
  let seed =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> ( try int_of_string (String.trim s) with _ -> 0x5EED)
    | None -> 0x5EED
  in
  Random.State.make [| seed |]

let () =
  let qt = QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) in
  Alcotest.run "sched"
    [
      ( "equivalence",
        [
          Alcotest.test_case "interleaved = sequential" `Quick
            test_interleaved_matches_sequential;
          Alcotest.test_case "quantum invariance" `Quick test_quantum_invariance;
          Alcotest.test_case "virtual clock" `Quick test_virtual_clock_advances;
          qt prop_interleaving_is_invisible;
        ] );
      ( "attack",
        [
          Alcotest.test_case "mid-stream attack matches sequential" `Quick
            test_mid_stream_attack_matches_sequential;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "sharded(2 domains) = single domain" `Quick
            test_sharded_matches_single_domain;
          Alcotest.test_case "bounded mailboxes and outbox backpressure" `Quick
            test_backpressure_and_mailbox_bounds;
          Alcotest.test_case "malicious antibody rejected, legitimate adopted"
            `Quick test_malicious_antibody_round;
          Alcotest.test_case "producer's rejected bundle is recorded" `Quick
            test_producer_rejection_recorded;
          Alcotest.test_case "merged clock gauges are not sums" `Quick
            test_merged_clock_gauges;
          qt prop_sharded_oracle;
        ] );
    ]
