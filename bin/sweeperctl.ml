(* sweeperctl: command-line front end to the Sweeper reproduction.

   Subcommands:
     list      - the evaluated applications (Table 1)
     attack    - run the full attack/defense pipeline against one app
     serve     - run a benign workload and report checkpointing stats
     trace     - run an attack with tracing on; write Chrome trace JSON
     analyze   - static CFG + taint reachability over an app's loaded code
     epidemic  - query the community-defense model
     outbreak  - mechanical multi-host worm outbreak with antibody sharing
     forensics - reconstruct the infection tree from provenance netlogs *)

open Cmdliner

let app_names = List.map (fun e -> e.Apps.Registry.r_key) Apps.Registry.all

let app_arg =
  let doc =
    Printf.sprintf "Application to target: %s." (String.concat ", " app_names)
  in
  Arg.(
    required
    & pos 0 (some (enum (List.map (fun k -> (k, k)) app_names))) None
    & info [] ~docv:"APP" ~doc)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

let aslr_arg =
  Arg.(
    value & opt bool true
    & info [ "aslr" ] ~docv:"BOOL" ~doc:"Address-space randomization.")

let benign_arg =
  Arg.(
    value & opt int 20
    & info [ "benign" ] ~docv:"N" ~doc:"Benign requests to serve first.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print a Prometheus-text metrics snapshot when done.")

(* All subcommands share the process-wide default registry: sweeperctl is
   one-shot, so the gauge-retention caveat on per-server registration does
   not apply. *)
let obs_registry = Obs.Metrics.default

let maybe_print_metrics flag =
  if flag then print_string (Obs.Metrics.to_prometheus obs_registry)

(* The value of one sample from the registry snapshot, for a server-labelled
   metric. Counters and gauges both collapse to an int here; serve's summary
   line is integral throughout. *)
let metric_value name server_id =
  let labels = [ ("server", string_of_int server_id) ] in
  match
    List.find_opt
      (fun s ->
        s.Obs.Metrics.s_name = name && s.Obs.Metrics.s_labels = labels)
      (Obs.Metrics.snapshot obs_registry)
  with
  | Some { Obs.Metrics.s_value = Obs.Metrics.Sample_counter n; _ } -> n
  | Some { Obs.Metrics.s_value = Obs.Metrics.Sample_gauge v; _ } ->
    int_of_float v
  | _ -> 0

(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    Printf.printf "%-8s %-14s %-22s %-14s %s\n" "KEY" "PROGRAM" "DESCRIPTION"
      "CVE" "BUG";
    List.iter
      (fun (e : Apps.Registry.entry) ->
        Printf.printf "%-8s %-14s %-22s %-14s %s\n" e.r_key e.r_program
          e.r_description e.r_cve e.r_bug_type)
      Apps.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the evaluated applications (Table 1)")
    Term.(const run $ const ())

let attack_cmd =
  let run app seed aslr benign metrics =
    let entry = Apps.Registry.find app in
    let proc = Osim.Process.load ~aslr ~seed (entry.r_compile ()) in
    let server =
      Osim.Server.create
        ?metrics:(if metrics then Some obs_registry else None)
        proc
    in
    ignore (Osim.Server.run server);
    List.iter
      (fun m -> ignore (Osim.Server.handle server m))
      (Apps.Registry.workload ~seed app benign);
    let exploit =
      Apps.Registry.exploit ~system_guess:0x12345678 ~cmd_ptr:0 app
    in
    List.iter
      (fun m ->
        match Sweeper.Orchestrator.protected_handle ~app server m with
        | `Attack r ->
          Sweeper.Report.print_table2 proc r;
          print_newline ();
          Sweeper.Report.print_table3_header ();
          Sweeper.Report.print_table3_row r
        | `Served _ -> print_endline "(message served: state buildup)"

        | _ -> ())
      exploit.Apps.Exploits.x_messages;
    maybe_print_metrics metrics
  in
  let run app seed aslr benign metrics =
    try run app seed aslr benign metrics
    with e -> Printf.eprintf "error: %s\n" (Printexc.to_string e)
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:"Fire the canonical exploit and run the defense pipeline")
    Term.(const run $ app_arg $ seed_arg $ aslr_arg $ benign_arg $ metrics_arg)

let serve_cmd =
  let requests =
    Arg.(
      value & opt int 500
      & info [ "requests" ] ~docv:"N" ~doc:"Requests to serve.")
  in
  let interval =
    Arg.(
      value & opt int 200
      & info [ "interval" ] ~docv:"MS"
          ~doc:"Checkpoint interval in simulated milliseconds (0 = off).")
  in
  let run app seed interval n metrics =
    let entry = Apps.Registry.find app in
    let proc = Osim.Process.load ~seed (entry.r_compile ()) in
    let config =
      { Osim.Server.checkpoint_interval_ms = interval; keep_checkpoints = 20 }
    in
    let server = Osim.Server.create ~config ~metrics:obs_registry proc in
    ignore (Osim.Server.run server);
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun m -> ignore (Osim.Server.handle server m))
      (Apps.Registry.workload ~seed app n);
    let dt = Unix.gettimeofday () -. t0 in
    (* Every figure below is read back from the metrics registry the server
       registered itself in — the same samples `--metrics` exposes. *)
    let v name = metric_value name server.Osim.Server.id in
    Printf.printf
      "%d requests in %.3f s; %d instructions; %d checkpoints; %d COW page \
       copies; %d pages mapped\n"
      n dt
      (v "sweeper_vm_fast_instructions" + v "sweeper_vm_slow_instructions")
      (v "sweeper_checkpoints_total")
      (v "sweeper_vm_cow_copies")
      (v "sweeper_vm_pages_mapped");
    maybe_print_metrics metrics
  in
  Cmd.v (Cmd.info "serve" ~doc:"Serve a benign workload, report stats")
    Term.(const run $ app_arg $ seed_arg $ interval $ requests $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* trace: the attack pipeline with the tracer, the metrics registry, and
   the VM flight recorder all armed; writes Chrome trace-event JSON. *)

let required_span_names =
  "checkpoint" :: "attack" :: "recovery"
  :: List.map
       (fun (s : Sweeper.Stage.t) -> s.Sweeper.Stage.name)
       [
         Sweeper.Orchestrator.coredump_stage;
         Sweeper.Orchestrator.membug_stage;
         Sweeper.Orchestrator.taint_stage;
         Sweeper.Orchestrator.isolation_stage;
         Sweeper.Orchestrator.slicing_stage;
       ]

(* Validate a written trace file: it must parse as JSON, expose a
   traceEvents array, and contain a span for checkpointing, for each of the
   five analysis stages, for the attack, and for the recovery. *)
let check_trace path =
  let contents =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let events =
    match
      Option.bind
        (Obs.Json.member "traceEvents" (Obs.Json.parse_exn contents))
        Obs.Json.to_list
    with
    | Some evs -> evs
    | None -> failwith "trace has no traceEvents array"
  in
  let names =
    List.filter_map
      (fun e ->
        match Obs.Json.member "name" e with
        | Some (Obs.Json.Str s) -> Some s
        | _ -> None)
      events
  in
  let missing =
    List.filter (fun r -> not (List.mem r names)) required_span_names
  in
  if missing <> [] then begin
    Printf.eprintf "trace check FAILED: missing span(s): %s\n"
      (String.concat ", " missing);
    exit 1
  end;
  Printf.printf "trace check OK: %d events, all required spans present\n"
    (List.length events)

let trace_cmd =
  let out =
    Arg.(
      value
      & opt string "sweeper-trace.json"
      & info [ "out" ] ~docv:"PATH"
          ~doc:"Where to write the Chrome trace-event JSON.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Validate the written trace: it must parse and contain spans \
             for checkpointing, every analysis stage, and recovery.")
  in
  let flight =
    Arg.(
      value
      & opt int Obs.Recorder.default_capacity
      & info [ "flight" ] ~docv:"N"
          ~doc:"VM flight-recorder ring capacity (0 disables it).")
  in
  let run app seed aslr benign metrics out check flight_cap =
    Obs.Trace.enable ();
    Obs.Trace.clear ();
    let entry = Apps.Registry.find app in
    let proc = Osim.Process.load ~aslr ~seed (entry.r_compile ()) in
    if flight_cap > 0 then
      proc.Osim.Process.flight <-
        Some (Obs.Recorder.attach ~capacity:flight_cap proc.Osim.Process.cpu);
    let server = Osim.Server.create ~metrics:obs_registry proc in
    ignore (Osim.Server.run server);
    List.iter
      (fun m -> ignore (Osim.Server.handle server m))
      (Apps.Registry.workload ~seed app benign);
    let exploit =
      Apps.Registry.exploit ~system_guess:0x12345678 ~cmd_ptr:0 app
    in
    let flight_dump = ref None in
    List.iter
      (fun m ->
        match Sweeper.Orchestrator.protected_handle ~app server m with
        | `Attack r ->
          (match
             r.Sweeper.Orchestrator.a_coredump.Sweeper.Coredump.c_flight
           with
          | Some d -> flight_dump := Some d
          | None -> ());
          Printf.printf "analyzed: %s\n" (Sweeper.Report.summary r)
        | _ -> ())
      exploit.Apps.Exploits.x_messages;
    Obs.Trace.write out;
    Printf.printf "wrote %s (%d events)\n" out (Obs.Trace.event_count ());
    (match !flight_dump with
    | Some d ->
      print_endline "flight recorder at crash (oldest first):";
      print_string d
    | None -> ());
    maybe_print_metrics metrics;
    if check then check_trace out
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the attack pipeline with tracing, metrics, and the flight \
          recorder on; write a Chrome/Perfetto-openable trace")
    Term.(
      const run $ app_arg $ seed_arg $ aslr_arg $ benign_arg $ metrics_arg
      $ out $ check $ flight)

(* ------------------------------------------------------------------ *)
(* analyze: static CFG recovery + taint reachability over an app's loaded
   code, reporting the may-propagate set S that antibody validation checks
   taint filters against. *)

let analyze_cmd =
  let cfg_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "cfg-out" ] ~docv:"PATH"
          ~doc:"Write the recovered control-flow graph as Graphviz DOT.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the analysis summary as JSON.")
  in
  let absint =
    Arg.(
      value & flag
      & info [ "absint" ]
          ~doc:
            "Also report the interval abstract interpretation: the \
             proven/possible/oob/unreachable partition of every memory \
             access, per function.")
  in
  let run app seed cfg_out json absint =
    let entry = Apps.Registry.find app in
    let proc = Osim.Process.load ~seed (entry.r_compile ()) in
    let code = proc.Osim.Process.cpu.Vm.Cpu.code in
    let cfg = Static_an.Cfg.build code in
    let sa = Static_an.Staint.analyze code in
    let blocks = Static_an.Cfg.blocks cfg in
    let edges =
      Array.fold_left
        (fun acc (b : Static_an.Cfg.block) ->
          acc + List.length b.Static_an.Cfg.b_succs)
        0 blocks
    in
    let total = Static_an.Staint.total sa in
    (* Per-function interval summaries: partition the access pcs by the
       function symbol ranges of both images (assembler-internal ".L"
       labels are not function boundaries). *)
    let ai = proc.Osim.Process.absint in
    let funcs () =
      let syms = ref [] in
      List.iter
        (fun (img : Vm.Asm.image) ->
          Hashtbl.iter
            (fun name addr ->
              if String.length name < 2 || String.sub name 0 2 <> ".L" then
                syms := (addr, name) :: !syms)
            img.Vm.Asm.symbols)
        (Osim.Process.images proc);
      let syms = List.sort compare !syms in
      let arr = Array.of_list syms in
      let stats = Array.map (fun (a, n) -> (n, a, Array.make 4 0)) arr in
      Static_an.Absint.iter_accesses ai (fun pc cls ->
          (* index of the last symbol at or below pc *)
          let rec bsearch lo hi =
            if lo >= hi then lo - 1
            else
              let mid = (lo + hi) / 2 in
              if fst arr.(mid) <= pc then bsearch (mid + 1) hi
              else bsearch lo mid
          in
          let i = bsearch 0 (Array.length arr) in
          if i >= 0 then begin
            let _, _, counts = stats.(i) in
            let k =
              match cls with
              | Static_an.Absint.Proven _ -> 0
              | Static_an.Absint.Possible -> 1
              | Static_an.Absint.Oob -> 2
              | Static_an.Absint.Unreachable -> 3
            in
            counts.(k) <- counts.(k) + 1
          end);
      Array.to_list stats
      |> List.filter (fun (_, _, c) -> Array.exists (fun v -> v > 0) c)
    in
    (match cfg_out with
    | Some path ->
      let oc = open_out path in
      output_string oc (Static_an.Cfg.to_dot ~name:"sweeper" cfg);
      close_out oc;
      if not json then Printf.printf "wrote %s\n" path
    | None -> ());
    if json then
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              ([
                 ("app", Obs.Json.Str app);
                 ("instructions", Obs.Json.Int total);
                 ("cfg_blocks", Obs.Json.Int (Array.length blocks));
                 ("cfg_edges", Obs.Json.Int edges);
                 ( "max_stack_depth_bytes",
                   Obs.Json.Int (Static_an.Dataflow.max_stack_depth cfg) );
                 ( "taint_prop_pcs",
                   Obs.Json.Int (Static_an.Staint.prop_count sa) );
                 ( "analysis_ms",
                   Obs.Json.Float (Static_an.Staint.analysis_ms sa) );
               ]
              @
              if not absint then []
              else
                [
                  ( "absint",
                    Obs.Json.Obj
                      [
                        ( "instructions",
                          Obs.Json.Int (Static_an.Absint.instructions ai) );
                        ( "accesses",
                          Obs.Json.Int (Static_an.Absint.accesses ai) );
                        ("proven", Obs.Json.Int (Static_an.Absint.proven ai));
                        ( "possible",
                          Obs.Json.Int (Static_an.Absint.possible ai) );
                        ("oob", Obs.Json.Int (Static_an.Absint.oob ai));
                        ( "unreachable",
                          Obs.Json.Int (Static_an.Absint.unreachable ai) );
                        ( "proven_pct",
                          Obs.Json.Float
                            (100. *. Static_an.Absint.proven_pct ai) );
                        ( "analysis_ms",
                          Obs.Json.Float (Static_an.Absint.analysis_ms ai) );
                        ( "functions",
                          Obs.Json.List
                            (List.map
                               (fun (name, base, c) ->
                                 Obs.Json.Obj
                                   [
                                     ("name", Obs.Json.Str name);
                                     ("base", Obs.Json.Int base);
                                     ("proven", Obs.Json.Int c.(0));
                                     ("possible", Obs.Json.Int c.(1));
                                     ("oob", Obs.Json.Int c.(2));
                                     ("unreachable", Obs.Json.Int c.(3));
                                   ])
                               (funcs ())) );
                      ] );
                ])))
    else begin
      Printf.printf "static analysis of %s (%d decoded instructions)\n" app
        total;
      Printf.printf "  CFG: %d blocks, %d edges%s\n" (Array.length blocks)
        edges
        (match Static_an.Cfg.unknown cfg with
        | Some _ -> " (+ unknown-target sink)"
        | None -> "");
      Printf.printf "  max static stack depth: %d bytes\n"
        (Static_an.Dataflow.max_stack_depth cfg);
      Printf.printf "  taint may-propagate set S: %d pcs\n"
        (Static_an.Staint.prop_count sa);
      Printf.printf "  analysis time: %.2f ms\n"
        (Static_an.Staint.analysis_ms sa);
      if absint then begin
        Printf.printf
          "interval abstract interpretation (%d instructions, %d accesses)\n"
          (Static_an.Absint.instructions ai)
          (Static_an.Absint.accesses ai);
        Printf.printf
          "  proven safe: %d (%.1f%%)  possible: %d  proven-oob: %d  \
           unreachable: %d\n"
          (Static_an.Absint.proven ai)
          (100. *. Static_an.Absint.proven_pct ai)
          (Static_an.Absint.possible ai)
          (Static_an.Absint.oob ai)
          (Static_an.Absint.unreachable ai);
        Printf.printf "  analysis time: %.2f ms\n"
          (Static_an.Absint.analysis_ms ai);
        Printf.printf "  %-24s %7s %8s %5s %11s\n" "function" "proven"
          "possible" "oob" "unreachable";
        List.iter
          (fun (name, _, c) ->
            Printf.printf "  %-24s %7d %8d %5d %11d\n" name c.(0) c.(1) c.(2)
              c.(3))
          (funcs ())
      end
    end
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static CFG recovery, taint reachability, and (with $(b,--absint)) \
          interval abstract interpretation over an application's loaded code")
    Term.(const run $ app_arg $ seed_arg $ cfg_out $ json $ absint)

let epidemic_cmd =
  let beta =
    Arg.(value & opt float 0.1 & info [ "beta" ] ~docv:"B" ~doc:"Contact rate.")
  in
  let rho =
    Arg.(
      value & opt float 1.0
      & info [ "rho" ] ~docv:"R" ~doc:"Attempt success probability.")
  in
  let alpha =
    Arg.(
      value & opt float 0.001
      & info [ "alpha" ] ~docv:"A" ~doc:"Producer deployment ratio.")
  in
  let gamma =
    Arg.(
      value & opt float 5.0
      & info [ "gamma" ] ~docv:"G" ~doc:"Community response time (s).")
  in
  let run beta rho alpha gamma =
    let p = { Epidemic.Si.beta; rho; alpha; n = 100_000.; i0 = 1. } in
    (match Epidemic.Si.t0 p with
    | Some t -> Printf.printf "first producer probed at T0 = %.3f s\n" t
    | None -> print_endline "the worm never probes a producer");
    Printf.printf "infection ratio at T0 + %.1f s: %.4f\n" gamma
      (Epidemic.Si.infection_ratio p ~gamma);
    match Epidemic.Si.max_gamma_for_ratio p ~target:0.05 with
    | Some g -> Printf.printf "response budget for <5%%: gamma <= %.2f s\n" g
    | None -> print_endline "cannot be contained below 5% at any gamma"
  in
  Cmd.v
    (Cmd.info "epidemic" ~doc:"Query the Section 6 community-defense model")
    Term.(const run $ beta $ rho $ alpha $ gamma)

(* ------------------------------------------------------------------ *)
(* Community runs: outbreak (population dynamics) and forensics
   (post-mortem infection-tree reconstruction). They share the sharded
   community setup flags. *)

let hosts_arg =
  Arg.(value & opt int 16 & info [ "hosts" ] ~docv:"N" ~doc:"Community size.")

let producers_arg =
  Arg.(
    value & opt int 2
    & info [ "producers" ] ~docv:"K" ~doc:"Hosts running full Sweeper.")

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "OCaml domains to run the community on. Results are identical \
           for every value -- that is the sharding oracle.")

let shards_arg =
  Arg.(
    value & opt (some int) None
    & info [ "shards" ] ~docv:"S"
        ~doc:"Shard count (defaults to $(b,--domains)).")

let topology_arg =
  Arg.(
    value & opt string "uniform"
    & info [ "topology" ] ~docv:"T"
        ~doc:
          "Host-to-shard placement: $(b,uniform), $(b,subnet:K) (whole \
           /K subnets per shard), or $(b,overlay:D) (degree-D P2P \
           overlay, scattered).")

let window_arg =
  Arg.(
    value & opt float 0.5
    & info [ "window-ms" ] ~docv:"MS"
        ~doc:"Barrier window length in simulated milliseconds.")

let rounds_arg =
  Arg.(value & opt int 3 & info [ "rounds" ] ~docv:"R" ~doc:"Worm rounds.")

let parse_topology s =
  match String.split_on_char ':' (String.lowercase_ascii s) with
  | [ "uniform" ] -> Osim.Cluster.Uniform
  | [ "subnet"; k ] -> Osim.Cluster.Subnet (int_of_string k)
  | [ "overlay"; d ] -> Osim.Cluster.Overlay (int_of_string d)
  | _ ->
    raise
      (Invalid_argument
         (Printf.sprintf "unknown topology %S (uniform | subnet:K | overlay:D)"
            s))

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let outbreak_cmd =
  let forensics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "forensics-out" ] ~docv:"PATH"
          ~doc:
            "After the outbreak, reconstruct the infection tree from the \
             hosts' netlogs and write the JSON forensic report here.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"PATH"
          ~doc:
            "Record Chrome trace events (lockstep windows, barriers, \
             message flows) across all domains and write the merged trace \
             here.")
  in
  let print_sample (s : Obs.Metrics.sample) =
    let labels =
      match s.Obs.Metrics.s_labels with
      | [] -> ""
      | l ->
        "{"
        ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l)
        ^ "}"
    in
    match s.Obs.Metrics.s_value with
    | Obs.Metrics.Sample_counter n ->
      Printf.printf "%s%s %d\n" s.Obs.Metrics.s_name labels n
    | Obs.Metrics.Sample_gauge v ->
      Printf.printf "%s%s %g\n" s.Obs.Metrics.s_name labels v
    | Obs.Metrics.Sample_histogram (_, sum, count) ->
      Printf.printf "%s%s count=%d sum=%g\n" s.Obs.Metrics.s_name labels count
        sum
  in
  let run n_hosts n_producers seed metrics domains shards topology window_ms
      rounds forensics_out trace_out =
    (match trace_out with
    | Some _ ->
      Obs.Trace.enable ();
      Obs.Trace.clear ()
    | None -> ());
    let app = Apps.Registry.find "apache1" in
    let topology = parse_topology topology in
    let module Sh = Sweeper.Defense.Sharded in
    let c =
      Sh.create ~domains ?shards ~window_ms ~topology ~app:"apache1"
        ~compile:app.r_compile ~n:n_hosts ~producers:n_producers ~seed ()
    in
    (* Attack bytes are a pure function of (seed, host, round), so the
       outbreak replays identically for any --domains. *)
    let attack_for round (h : Sweeper.Defense.host) =
      if h.Sweeper.Defense.h_infected then []
      else
        let rng =
          Random.State.make [| seed; 0xA77AC4; h.Sweeper.Defense.h_id; round |]
        in
        let guess = 0x4f770000 + (Random.State.int rng 4096 * 4096) + 0x15a0 in
        (Apps.Exploits.apache1_against ~system_guess:guess
           ~reqbuf_addr:0x08100000 ())
          .Apps.Exploits.x_messages
    in
    for round = 1 to rounds do
      Sh.post_traffic c ~traffic:(attack_for round);
      ignore (Sh.run_round c)
    done;
    let s = Sh.summary c in
    Printf.printf
      "outbreak over (%d hosts, %d shard(s) on %d domain(s), %s placement): \
       %d/%d infected\n"
      s.Sh.sm_hosts s.Sh.sm_shards s.Sh.sm_domains s.Sh.sm_topology
      s.Sh.sm_infected_hosts s.Sh.sm_hosts;
    Printf.printf
      "  %d attempts, %d crashes absorbed, %d blocked by antibodies, %d \
       producer analyses\n"
      s.Sh.sm_attempts s.Sh.sm_crashes s.Sh.sm_blocked s.Sh.sm_analyses;
    Printf.printf "  first antibody at %s (virtual)\n"
      (match s.Sh.sm_first_antibody_vtime_ms with
      | Some ms -> Printf.sprintf "%.2f ms" ms
      | None -> "never");
    Printf.printf
      "  %d barrier windows, %d cross-shard envelopes (%d deferred by \
       mailbox bounds), %d instructions\n"
      s.Sh.sm_windows s.Sh.sm_exchanged s.Sh.sm_deferred s.Sh.sm_instructions;
    (match forensics_out with
    | Some path ->
      let tree = Forensics.reconstruct (Forensics.of_sharded c) in
      write_file path
        (Obs.Json.to_string (Forensics.to_json ~app:"apache1" tree) ^ "\n");
      Printf.printf "  forensics: %d edge(s), patient zero %s; wrote %s\n"
        (List.length tree.Forensics.t_edges)
        (match tree.Forensics.t_patient_zero with
        | Some h -> Printf.sprintf "host %d" h
        | None -> "unknown")
        path
    | None -> ());
    (match trace_out with
    | Some path ->
      Obs.Trace.write path;
      Printf.printf "  trace: wrote %s (%d events)\n" path
        (Obs.Trace.event_count ())
    | None -> ());
    if metrics then List.iter print_sample (Sh.merged_metrics c)
  in
  Cmd.v
    (Cmd.info "outbreak"
       ~doc:"Mechanical worm outbreak across real hosts, domain-sharded")
    Term.(
      const run $ hosts_arg $ producers_arg $ seed_arg $ metrics_arg
      $ domains_arg $ shards_arg $ topology_arg $ window_arg $ rounds_arg
      $ forensics_out $ trace_out)

(* ------------------------------------------------------------------ *)
(* forensics: run a worm spread with full provenance, then reconstruct
   the infection tree from the netlogs alone and (optionally) assert it
   against the simulator's ground truth. *)

let forensics_cmd =
  let seeds =
    Arg.(
      value & opt int 2
      & info [ "seeds" ] ~docv:"K"
          ~doc:"External probes injected in round 1 (patient-zero seeding).")
  in
  let fanout =
    Arg.(
      value & opt int 2
      & info [ "fanout" ] ~docv:"F"
          ~doc:"Probes each infected host fires per round.")
  in
  let rho =
    Arg.(
      value & opt float 0.7
      & info [ "rho" ] ~docv:"R"
          ~doc:
            "Probe accuracy: fraction of probes carrying the victim's true \
             layout (the rest crash and feed the producers).")
  in
  let dot_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot-out" ] ~docv:"PATH"
          ~doc:"Write the reconstructed infection tree as Graphviz DOT.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"PATH"
          ~doc:"Write the machine-readable forensic report as JSON.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Assert the netlog reconstruction against the simulator's \
             ground-truth infection log; exit nonzero on any divergence.")
  in
  let run n_hosts n_producers seed metrics domains shards topology window_ms
      rounds seeds fanout rho dot_out json_out check =
    let app = Apps.Registry.find "apache1" in
    let topology = parse_topology topology in
    let module Sh = Sweeper.Defense.Sharded in
    let module D = Sweeper.Defense in
    let c =
      Sh.create ~domains ?shards ~window_ms ~topology ~app:"apache1"
        ~compile:app.r_compile ~n:n_hosts ~producers:n_producers ~seed ()
    in
    let host_arr = Array.of_list (Sh.hosts c) in
    let n = Array.length host_arr in
    (* A probe aimed with the victim's true layout: lands unless an
       antibody blocks it. This is how the spread model realizes rho
       mechanically -- the worm either knows the victim's addresses or
       crashes it. *)
    let aimed (dst : D.host) =
      let proc = dst.D.h_proc in
      (Apps.Exploits.apache1_against
         ~system_guess:(Osim.Process.system_addr proc)
         ~reqbuf_addr:(Hashtbl.find proc.Osim.Process.data_symbols "reqbuf")
         ())
        .Apps.Exploits.x_messages
    in
    let wild rng =
      let guess = 0x4f770000 + (Random.State.int rng 4096 * 4096) + 0x15a0 in
      (Apps.Exploits.apache1_against ~system_guess:guess
         ~reqbuf_addr:0x08100000 ())
        .Apps.Exploits.x_messages
    in
    (* Probes for one round, keyed by victim. Built before the round runs
       (so the infected set is the previous round's), purely from
       (seed, host, round) -- identical for every --domains. *)
    let round_attempts round =
      let attempts = Hashtbl.create 64 in
      let add dst pair =
        let prev = Option.value ~default:[] (Hashtbl.find_opt attempts dst) in
        Hashtbl.replace attempts dst (pair :: prev)
      in
      if round = 1 then
        for k = 0 to seeds - 1 do
          let rng = Random.State.make [| seed; 0x5EED; k |] in
          (* The first external probe is always aimed at a consumer (a
             producer would detect even an accurate hijack), so every run
             has a patient zero to trace back to. *)
          let dst =
            if k = 0 && n > n_producers then
              host_arr.(n_producers
                        + Random.State.int rng (n - n_producers))
            else host_arr.(Random.State.int rng n)
          in
          let accurate = k = 0 || Random.State.float rng 1.0 < rho in
          let msgs = if accurate then aimed dst else wild rng in
          List.iter (fun m -> add dst.D.h_id (-1, m)) msgs
        done
      else
        Array.iter
          (fun (src : D.host) ->
            if src.D.h_infected then begin
              let rng =
                Random.State.make [| seed; 0x3072; src.D.h_id; round |]
              in
              for _k = 1 to fanout do
                let dst = host_arr.(Random.State.int rng n) in
                let accurate = Random.State.float rng 1.0 < rho in
                if dst.D.h_id <> src.D.h_id then
                  let msgs = if accurate then aimed dst else wild rng in
                  List.iter (fun m -> add dst.D.h_id (src.D.h_id, m)) msgs
              done
            end)
          host_arr;
      attempts
    in
    for round = 1 to rounds do
      let attempts = round_attempts round in
      Sh.post_traffic_from c ~traffic:(fun h ->
          List.rev
            (Option.value ~default:[] (Hashtbl.find_opt attempts h.D.h_id)));
      ignore (Sh.run_round c)
    done;
    let tree = Forensics.reconstruct (Forensics.of_sharded c) in
    print_string (Forensics.report tree);
    (match Sh.antibody_origin c with
    | Some o ->
      Printf.printf
        "antibody minted on host %d at %.2f ms (attack msg %d from %s)\n"
        o.D.ao_host o.D.ao_vtime o.D.ao_msg
        (if o.D.ao_src < 0 then "outside"
         else Printf.sprintf "host %d" o.D.ao_src)
    | None -> print_endline "no antibody was minted");
    (match dot_out with
    | Some path ->
      write_file path (Forensics.to_dot tree);
      Printf.printf "wrote %s\n" path
    | None -> ());
    (match json_out with
    | Some path ->
      write_file path
        (Obs.Json.to_string (Forensics.to_json ~app:"apache1" tree) ^ "\n");
      Printf.printf "wrote %s\n" path
    | None -> ());
    if metrics then begin
      Forensics.register_metrics tree obs_registry;
      print_string (Obs.Metrics.to_prometheus obs_registry)
    end;
    if check then
      match Forensics.check tree (Forensics.ground_truth c) with
      | Ok () ->
        Printf.printf
          "forensics check OK: %d edge(s) match the ground-truth \
           infection log\n"
          (List.length tree.Forensics.t_edges)
      | Error msg ->
        Printf.eprintf "forensics check FAILED: %s\n" msg;
        exit 1
  in
  Cmd.v
    (Cmd.info "forensics"
       ~doc:
         "Run a provenance-tracked worm spread, reconstruct the infection \
          tree from the hosts' network logs, and report patient zero, \
          depth, and per-edge time-to-infection")
    Term.(
      const run $ hosts_arg $ producers_arg $ seed_arg $ metrics_arg
      $ domains_arg $ shards_arg $ topology_arg $ window_arg $ rounds_arg
      $ seeds $ fanout $ rho $ dot_out $ json_out $ check)

let main =
  Cmd.group
    (Cmd.info "sweeperctl" ~version:"1.0.0"
       ~doc:"Sweeper: lightweight end-to-end defense against fast worms")
    [ list_cmd; attack_cmd; serve_cmd; trace_cmd; analyze_cmd; epidemic_cmd;
      outbreak_cmd; forensics_cmd ]

let () = exit (Cmd.eval main)
