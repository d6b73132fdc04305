(** The community defense, mechanically: a fleet of real (simulated) hosts
    in the Producer/Consumer arrangement of Section 6.

    Producers run the complete Sweeper stack; when the lightweight monitors
    on one of them trip, it runs the full analysis, produces an antibody,
    and publishes it. Consumers run lightweight monitoring only, deploy
    published antibodies (optionally verifying them first in a sandbox),
    and are otherwise on their own. This module is the bridge between the
    per-host machinery of {!Orchestrator} and the population-level claims
    of {!Epidemic}: the analytic model's parameters (α, ρ, γ) all have a
    concrete mechanical counterpart here.

    Every community runs on one engine, {!Sharded}: hosts are partitioned
    across shards, each host is a task on its shard's cooperative
    scheduler ({!Osim.Sched}), traffic is posted to per-host inboxes, and
    attack handling, benign service, analysis, and antibody propagation
    all interleave in simulated time. One shard on one domain is the
    serial reference run. *)

type role = Producer | Consumer

type host = {
  h_id : int;
  h_role : role;
  h_proc : Osim.Process.t;
  h_server : Osim.Server.t;
  mutable h_infected : bool;
  mutable h_deployed : int;  (** antibody generation number installed *)
  mutable h_installed : Vsef.installed list;  (** currently-armed VSEFs *)
}

(** One confirmed infection — the simulator's ground truth that forensic
    trace-back ({!Forensics}) is validated against. Everything here is
    read off the victim's state at the moment the compromise surfaced;
    the reconstruction must recover the same tuple from netlogs alone. *)
type infection = {
  inf_victim : int;    (** infected host (global id) *)
  inf_src : int;       (** sending host, from the message's provenance *)
  inf_seq : int;       (** sender-side sequence number *)
  inf_msg : int;       (** netlog message id on the victim *)
  inf_arrival : float; (** victim-side arrival vtime of the message *)
  inf_vtime : float;   (** vtime the compromise surfaced *)
}

(** Where the community's antibody came from: the producer whose crash
    triggered the analysis, and the provenance of the attack message it
    analyzed — the forensic anchor "this antibody was minted against the
    message [ao_src] sent". *)
type ab_origin = {
  ao_host : int;    (** the producer that ran the analysis *)
  ao_vtime : float; (** vtime of the detection *)
  ao_msg : int;     (** netlog id of the attack message on that host *)
  ao_src : int;     (** provenance source of that message *)
  ao_seq : int;     (** its sender-side sequence number *)
}

(** The domain-sharded community: hosts partitioned across shards, each
    shard running its own single-threaded scheduler and metrics registry
    on its own OCaml domain ({!Osim.Cluster}), with antibody knowledge
    crossing shards only as envelope values at virtual-clock barriers.

    The broadcast protocol avoids rebroadcast loops by construction:
    a shard broadcasts (a) the first antibody it {e produces} by local
    analysis and (b) every exploit sample it confirms locally. A shard
    {e adopting} a broadcast antibody, or refining its signature from
    received samples, never re-emits — refinement is a pure function of
    the shard's own deterministic corpus order, so every shard converges
    to an equivalent token signature on its own.

    Determinism: within a window shards share no mutable state; the
    barrier merge key (vtime, source shard, sequence) is a pure function
    of shard-local computation; so `domains = N` and `domains = 1` run
    the identical barrier schedule — the differential oracle enforced by
    test_sched. All oracle-visible times are virtual; wall-clock only
    appears in diagnostic fields. {!Obs.Trace} is mutex-guarded, so
    tracing may stay enabled during multi-domain runs; wall-clock
    timestamps in the trace are diagnostic only. *)
module Sharded = struct
  (** Cross-shard mail. *)
  type msg =
    | Antibody_pub of Antibody.t * ab_origin option
        (** a producer's locally-analyzed antibody, broadcast once, with
            the provenance of the attack message it was minted against *)
    | Sample of string  (** a locally-confirmed exploit payload *)

  (* One shard: the defense state of its hosts (antibody, exploit corpus,
     counters, ground-truth logs) plus its scheduler and mail. Only the
     shard's own domain touches it inside a window. *)
  type shard = {
    sh_id : int;
    sh_shards : int;
    sh_app : string;
    sh_compile : unit -> Minic.Codegen.compiled;
        (** the application build, for consumer-side antibody verification *)
    sh_verify : bool;  (** replay-verify bundles before deploying them *)
    sh_hosts : host list;
    sh_sched : Osim.Sched.t;
    sh_outbox : Osim.Sched.outbox;
    sh_task_host : (int, host) Hashtbl.t;  (** task id -> host *)
    sh_task_of : (int, Osim.Sched.task) Hashtbl.t;  (** global host id -> task *)
    sh_metrics : Obs.Metrics.t;
        (** the shard's private registry; merged at barriers *)
    mutable sh_antibody : (int * Antibody.t) option;  (** generation, bundle *)
    mutable sh_generation : int;
    mutable sh_corpus : string list;
        (** every confirmed exploit payload the shard has seen; two or
            more distinct samples upgrade the exact-match signature to a
            Polygraph-style token signature *)
    mutable sh_statics : (Osim.Process.t * Static_an.Staint.t) option;
        (** lazily-built reference copy of the application plus its static
            taint analysis, for validating published antibodies (the
            process carries its interval analysis in
            [Osim.Process.absint]). Loaded with a fixed seed so every
            shard reaches identical verdicts. *)
    mutable sh_attempts : int;
    mutable sh_infections : int;
    mutable sh_crashes : int;  (** detections via lightweight monitoring *)
    mutable sh_blocked : int;  (** stopped by antibodies *)
    mutable sh_analyses : int;  (** producer pipeline runs *)
    mutable sh_infection_log : infection list;  (** newest first *)
    mutable sh_ab_origin : ab_origin option;
        (** provenance of the first antibody (local analysis or adopted) *)
    mutable sh_out_rev : msg Osim.Cluster.envelope list;
    mutable sh_events_rev : (float * int * string) list;
        (** (vtime, global host id, kind) — the oracle's event log *)
    mutable sh_first_pub : float option;
        (** vtime of this shard's first locally-analyzed publication *)
    mutable sh_ab_prov : (float * int * int) option;
        (** envelope provenance (vtime, src shard, seq) of the antibody
            this shard adopted at a barrier — surfaced, not dropped *)
  }

  type community = {
    c_shards : shard array;
    c_config : Osim.Cluster.config;
    c_topology : Osim.Cluster.topology;
    c_n : int;
    mutable c_windows : int;
    mutable c_exchanged : int;
    mutable c_deferred : int;
    mutable c_merged : Obs.Metrics.sample list;
        (** community-level metrics, merged at the last barrier *)
    c_seqs : (int, int ref) Hashtbl.t;
        (** per-source sequence counters for provenance stamping;
            advanced on the calling domain in deterministic host order *)
  }

  (** Everything the differential oracle compares, plus run statistics.
      All times are virtual (simulated ms). *)
  type summary = {
    sm_hosts : int;
    sm_domains : int;
    sm_shards : int;
    sm_topology : string;
    sm_windows : int;
    sm_exchanged : int;
    sm_deferred : int;
    sm_backpressures : int;
    sm_instructions : int;
    sm_attempts : int;
    sm_infections : int;
    sm_crashes : int;
    sm_blocked : int;
    sm_analyses : int;
    sm_infected_hosts : int;
    sm_first_antibody_vtime_ms : float option;
    sm_events : (float * int * string) list;
        (** (vtime, global host id, kind), sorted *)
    sm_icounts : (int * int) list;  (** (global host id, icount), sorted *)
    sm_outputs : (int * (int * string) list) list;
        (** per-host committed outputs, by global host id *)
    sm_infection_log : infection list;
        (** ground-truth infections, sorted by (arrival, victim) *)
    sm_adoptions : (int * (float * int * int)) list;
        (** shards that adopted a broadcast antibody, with the envelope
            provenance (vtime, src shard, seq) it arrived under; sorted *)
    sm_ab_origin : ab_origin option;
        (** provenance of the community's first antibody *)
  }

  (* ---------------------------------------------------------------- *)
  (* Antibody publication and refinement, per shard                    *)
  (* ---------------------------------------------------------------- *)

  (* The rejection-reason label values of [sweeper_antibody_rejected_total],
     pre-registered at community creation so merged samples expose explicit
     zeros. Ordered by when the bar applies: static checks first, the
     (optional) replay last. *)
  let reject_reasons = [ "static-infeasible"; "pcs-outside-S"; "replay-failed" ]

  let rejected_counter sh reason =
    Obs.Metrics.counter ~registry:sh.sh_metrics
      ~help:"antibody bundles rejected at publication, by reason"
      ~labels:[ ("reason", reason) ]
      "sweeper_antibody_rejected_total"

  (* The reference statics every published bundle is validated against:
     one fixed-seed copy of the application (its loader already ran the
     interval analysis) plus the static taint analysis of its code. Built
     on first publication, cached for the community's lifetime. *)
  let statics_of sh =
    match sh.sh_statics with
    | Some s -> s
    | None ->
      let proc = Osim.Process.load ~aslr:true ~seed:97 (sh.sh_compile ()) in
      let s = (proc, Static_an.Staint.analyze proc.Osim.Process.cpu.Vm.Cpu.code) in
      sh.sh_statics <- Some s;
      s

  (* Why a bundle must not be adopted, or [None] when it passes: the
     always-on static bars (every guarded overflow pc must be a statically
     feasible unsafe write; every taint-filter pc must lie in S), then the
     opt-in exploit replay. A static rejection comes with its detail,
     " <vsef>@<loc>[,<loc>...]" per offending VSEF; locations are
     segment-relative, so every shard renders the same text. *)
  let rejection sh antibody =
    let proc, staint = statics_of sh in
    let named reason bad =
      let vsef (name, pcs) =
        Printf.sprintf " %s@%s" name
          (String.concat ","
             (List.map
                (fun pc -> Vsef.default_describe (Vsef.loc_of_pc proc pc))
                pcs))
      in
      Some (reason, String.concat "" (List.map vsef bad))
    in
    match Antibody.validate_feasible proc proc.Osim.Process.absint antibody with
    | _ :: _ as bad -> named "static-infeasible" bad
    | [] -> (
      match Antibody.validate_static proc staint antibody with
      | _ :: _ as bad -> named "pcs-outside-S" bad
      | [] ->
        if sh.sh_verify && not (Antibody.verify antibody ~compile:sh.sh_compile)
        then Some ("replay-failed", "")
        else None)

  (* Publish an antibody on the shard — after validation: the static
     feasibility and taint bars always apply, and consumers that distrust
     the producer additionally verify the bundle against their own copy of
     the application (the deferred-verification option of Section 3.3).
     Returns [None] when the bundle was accepted, else the rejection
     reason and its detail; rejections count in
     [sweeper_antibody_rejected_total] by reason. *)
  let publish sh antibody =
    match rejection sh antibody with
    | Some (reason, _) as rejected ->
      Obs.Metrics.inc (rejected_counter sh reason);
      Obs.Trace.instant ~cat:"community"
        ~args:[ ("reason", reason) ]
        "antibody-rejected";
      rejected
    | None ->
      sh.sh_generation <- sh.sh_generation + 1;
      sh.sh_antibody <- Some (sh.sh_generation, antibody);
      Obs.Metrics.inc
        (Obs.Metrics.counter ~registry:sh.sh_metrics
           ~help:"antibody generations published"
           "sweeper_antibodies_published_total");
      Obs.Trace.instant ~cat:"community"
        ~args:[ ("generation", string_of_int sh.sh_generation) ]
        "antibody-published";
      None

  (* Make sure [host] runs the latest antibody generation, replacing any
     previously installed one. *)
  let sync_antibody sh host =
    match sh.sh_antibody with
    | Some (gen, ab) when host.h_deployed < gen ->
      List.iter Vsef.uninstall host.h_installed;
      Osim.Netlog.remove_filter host.h_proc.Osim.Process.net
        ~name:("antibody-" ^ sh.sh_app);
      host.h_installed <- Antibody.deploy host.h_proc ab;
      host.h_deployed <- gen
    | _ -> ()

  (* Record a confirmed exploit payload (the original crash input or a
     VSEF-blocked variant). With two or more distinct samples the
     signature is refined from exact-match to a token signature that
     covers the whole family, and the antibody is republished.
     Token refinement converges after a handful of diverse variants: only
     bytes invariant across ALL samples survive, and each extra sample
     can only shrink the token set it has already stabilized. Refining
     (and republishing, which redeploys VSEFs shard-wide) on every one of
     thousands of distinct worm variants would be O(n^2); saturate
     instead. *)
  let refine_corpus_cap = 8

  let record_exploit_sample sh payload =
    if
      List.compare_length_with sh.sh_corpus refine_corpus_cap < 0
      && not (List.mem payload sh.sh_corpus)
    then begin
      sh.sh_corpus <- payload :: sh.sh_corpus;
      match (sh.sh_antibody, sh.sh_corpus) with
      | Some (_, ab), (_ :: _ :: _ as corpus) ->
        let refined = Signature.tokens_of_variants (List.rev corpus) in
        ignore (publish sh { ab with Antibody.ab_signature = Some refined })
      | _ -> ()
    end

  (* ---------------------------------------------------------------- *)
  (* Reacting to scheduler events                                      *)
  (* ---------------------------------------------------------------- *)

  (* Drop the message [host] is servicing: roll back to a checkpoint
     predating its consumption (the latest one may have been taken
     mid-message) and resume without it. *)
  let drop_current host =
    let cur = host.h_proc.Osim.Process.cur_msg in
    let ck = fst (Stage.Replay.rollback_point host.h_server ~msg_index:cur) in
    ignore (Recovery.recover host.h_server ck ~skip:[ cur ])

  (* The provenance of the message a host is currently servicing. *)
  let cur_prov host =
    let cur = host.h_proc.Osim.Process.cur_msg in
    if cur < 0 then None
    else
      Some
        (cur, (Osim.Netlog.message host.h_proc.Osim.Process.net cur).Osim.Netlog.m_prov)

  let record_event sh vt host_id kind =
    sh.sh_events_rev <- (vt, host_id, kind) :: sh.sh_events_rev

  (* Rejections carry their reason, like ["filtered:<name>"], then the
     offending VSEFs. *)
  let record_rejection sh vt host_id (reason, detail) =
    record_event sh vt host_id ("antibody-rejected:" ^ reason ^ detail)

  let broadcast sh vt m =
    for dst = 0 to sh.sh_shards - 1 do
      if dst <> sh.sh_id then
        sh.sh_out_rev <-
          { Osim.Cluster.env_vtime = vt; env_src = sh.sh_id; env_seq = 0;
            env_dst = dst; env_msg = m }
          :: sh.sh_out_rev
    done

  (* Apply one inbound envelope at window start. Neither branch ever
     re-emits — see the module doc's loop-freedom argument. Adoption
     bookkeeping happens only when [publish] accepts the bundle: a
     bundle that fails validation is rejected — counted and recorded
     with its reason — and leaves the shard open to a later legitimate
     publication. *)
  let apply_envelope sh (e : msg Osim.Cluster.envelope) =
    match e.Osim.Cluster.env_msg with
    | Antibody_pub (ab, origin) when sh.sh_antibody = None -> (
      let vt = e.Osim.Cluster.env_vtime in
      match publish sh ab with
      | None ->
        if sh.sh_ab_origin = None then sh.sh_ab_origin <- origin;
        sh.sh_ab_prov <-
          Some (vt, e.Osim.Cluster.env_src, e.Osim.Cluster.env_seq);
        record_event sh vt (-1) "antibody-adopted"
      | Some rejected -> record_rejection sh vt (-1) rejected)
    | Antibody_pub _ -> ()
    | Sample s -> record_exploit_sample sh s

  (* A producer detected an attack: capture the attack message's
     provenance (the recovery inside [handle_attack] rolls [cur_msg]
     back), run the full analysis, and publish what it produced. *)
  let analyze sh host vt fault =
    sh.sh_analyses <- sh.sh_analyses + 1;
    let origin =
      Option.map
        (fun (cur, p) ->
          { ao_host = host.h_id; ao_vtime = vt; ao_msg = cur;
            ao_src = p.Osim.Netlog.p_src; ao_seq = p.Osim.Netlog.p_seq })
        (cur_prov host)
    in
    let report = Orchestrator.handle_attack ~app:sh.sh_app host.h_server fault in
    let ab = report.Orchestrator.a_antibody in
    (match publish sh ab with
    | None -> if sh.sh_ab_origin = None then sh.sh_ab_origin <- origin
    | Some rejected -> record_rejection sh vt host.h_id rejected);
    host.h_deployed <- sh.sh_generation;
    Option.iter (List.iter (record_exploit_sample sh)) ab.Antibody.ab_exploit_input

  (* The shard's reaction to one reified scheduler event: log it for the
     oracle, apply the community behaviour (producer analysis, consumer
     rollback, VSEF-confirmed samples), return repaired hosts to service,
     then queue for the barrier whatever the reaction produced. *)
  let react sh (fx : Osim.Sched.effect_) =
    let task = fx.Osim.Sched.fx_task in
    let host = Hashtbl.find sh.sh_task_host task.Osim.Sched.sk_id in
    let vt = fx.Osim.Sched.fx_vtime in
    let had_ab = sh.sh_antibody <> None in
    let corpus0 = List.length sh.sh_corpus in
    (match fx.Osim.Sched.fx_event with
    | Osim.Sched.Served _ | Osim.Sched.Stopped -> ()
    | Osim.Sched.Filtered (name, _) ->
      record_event sh vt host.h_id ("filtered:" ^ name);
      sh.sh_blocked <- sh.sh_blocked + 1
    | Osim.Sched.Infected _ ->
      record_event sh vt host.h_id "infected";
      host.h_infected <- true;
      sh.sh_infections <- sh.sh_infections + 1;
      Option.iter
        (fun (cur, p) ->
          sh.sh_infection_log <-
            { inf_victim = host.h_id; inf_src = p.Osim.Netlog.p_src;
              inf_seq = p.Osim.Netlog.p_seq; inf_msg = cur;
              inf_arrival = p.Osim.Netlog.p_vtime; inf_vtime = vt }
            :: sh.sh_infection_log)
        (cur_prov host)
    | Osim.Sched.Crashed fault ->
      record_event sh vt host.h_id "crashed";
      sh.sh_crashes <- sh.sh_crashes + 1;
      (* A consumer has checkpoints but no analysis stack: it can only
         drop the attack message. *)
      (match host.h_role with
      | Producer -> analyze sh host vt fault
      | Consumer -> drop_current host);
      Osim.Sched.unpark sh.sh_sched task
    | Osim.Sched.Raised (Detection.Detected _) ->
      (* A VSEF vetoed the attack: drop the message, resume — and feed the
         confirmed exploit variant back into signature refinement, so the
         proxy filter learns what the VSEF had to catch. *)
      record_event sh vt host.h_id "vetoed";
      sh.sh_blocked <- sh.sh_blocked + 1;
      let cur = host.h_proc.Osim.Process.cur_msg in
      let payload =
        (Osim.Netlog.message host.h_proc.Osim.Process.net cur).Osim.Netlog.m_payload
      in
      drop_current host;
      record_exploit_sample sh payload;
      Osim.Sched.unpark sh.sh_sched task
    | Osim.Sched.Raised e -> raise e);
    (match sh.sh_antibody with
    | Some (_, ab) when not had_ab ->
      if sh.sh_first_pub = None then sh.sh_first_pub <- Some vt;
      record_event sh vt host.h_id "antibody-published";
      broadcast sh vt (Antibody_pub (ab, sh.sh_ab_origin))
    | _ -> ());
    let corpus1 = List.length sh.sh_corpus in
    (* Broadcast only samples that can still refine a signature somewhere:
       past the saturation cap they are dead weight on every shard. *)
    if corpus1 > corpus0 && corpus0 < refine_corpus_cap then begin
      (* The corpus grows by prepending; the delta is its prefix. *)
      let fresh = List.filteri (fun i _ -> i < corpus1 - corpus0) sh.sh_corpus in
      List.iter (fun s -> broadcast sh vt (Sample s)) (List.rev fresh)
    end

  (* One shard's window: apply inbound mail, then alternate the pure
     scheduler core with event processing until the barrier holds. *)
  let window_fn sh ~inbox ~until =
    List.iter (apply_envelope sh) inbox;
    let rec drive () =
      let stop = Osim.Sched.step_until ~outbox:sh.sh_outbox sh.sh_sched ~until in
      List.iter (react sh) (Osim.Sched.outbox_drain sh.sh_outbox);
      match stop with
      | Osim.Sched.Backpressure -> drive ()
      | Osim.Sched.Barrier | Osim.Sched.Quiescent ->
        (* Reactions may have unparked tasks still behind the barrier. *)
        if Osim.Sched.has_runnable_before sh.sh_sched ~until then drive ()
    in
    drive ();
    let out = List.rev sh.sh_out_rev in
    sh.sh_out_rev <- [];
    { Osim.Cluster.wr_out = out;
      wr_done = Osim.Sched.quiescent sh.sh_sched }

  (* ---------------------------------------------------------------- *)
  (* Building and driving the community                                *)
  (* ---------------------------------------------------------------- *)

  (* Stamp out the community's hosts from a pool of templates: the full
     MiniC load pipeline runs once per distinct layout seed, every other
     host is a copy-on-write instantiation. A pool of [template_pool]
     distinct ASLR draws preserves the population diversity that the
     paper's ρ analysis needs; for n <= pool the per-host layouts are
     exactly the per-host loads (template k carries seed + k). *)
  let template_pool = 64

  let make_hosts ~n ~producers ~seed compiled =
    let pool = max 1 (min n template_pool) in
    let templates =
      Array.init pool (fun k ->
          Osim.Process.template ~aslr:true ~seed:(seed + k) compiled)
    in
    List.init n (fun id ->
        let proc = Osim.Process.instantiate templates.(id mod pool) in
        let server = Osim.Server.create proc in
        ignore (Osim.Server.run server);
        {
          h_id = id;
          h_role = (if id < producers then Producer else Consumer);
          h_proc = proc;
          h_server = server;
          h_infected = false;
          h_deployed = 0;
          h_installed = [];
        })

  let shard_infected sh =
    List.length (List.filter (fun h -> h.h_infected) sh.sh_hosts)

  (* The shard's registry: rejection reasons pre-registered (explicit
     zeros), scheduler gauges, and the population-level counters as
     pull-gauges. *)
  let register_metrics sh =
    let registry = sh.sh_metrics in
    List.iter (fun r -> ignore (rejected_counter sh r)) reject_reasons;
    Osim.Sched.register_metrics sh.sh_sched registry;
    let g name help f =
      Obs.Metrics.gauge_fn ~registry ~help name (fun () -> float_of_int (f ()))
    in
    g "sweeper_community_attempts" "deliveries attempted" (fun () ->
        sh.sh_attempts);
    g "sweeper_community_infections" "successful infections" (fun () ->
        sh.sh_infections);
    g "sweeper_community_crashes" "detections via lightweight monitoring"
      (fun () -> sh.sh_crashes);
    g "sweeper_community_blocked" "attacks stopped by antibodies" (fun () ->
        sh.sh_blocked);
    g "sweeper_community_analyses" "producer pipeline runs" (fun () ->
        sh.sh_analyses);
    g "sweeper_community_infected_hosts" "hosts currently infected" (fun () ->
        shard_infected sh);
    Obs.Metrics.gauge_fn ~registry
      ~help:"virtual time of the first antibody (ms; -1 before one exists)"
      "sweeper_community_first_antibody_ms" (fun () ->
        Option.value ~default:(-1.) sh.sh_first_pub)

  (** Build a sharded community: hosts are created on the calling domain
      (template-pool instantiation), placed by [topology], and handed to
      per-shard defense states. [domains] only selects how many OCaml
      domains execute the fixed [shards] partition — it must never change
      results, which is exactly what the differential oracle checks. *)
  let create ?(verify_before_deploy = false) ?(domains = 1) ?shards
      ?(window_ms = 0.5) ?(mailbox_limit = 4096) ?(outbox_limit = 256)
      ?(topology = Osim.Cluster.Uniform) ~app
      ~(compile : unit -> Minic.Codegen.compiled) ~n ~producers ~seed () =
    let shards = match shards with Some s -> max 1 s | None -> max 1 domains in
    let shard_hosts = Array.make shards [] in
    List.iter
      (fun h ->
        let s = Osim.Cluster.place topology ~shards ~host:h.h_id in
        shard_hosts.(s) <- h :: shard_hosts.(s))
      (make_hosts ~n ~producers ~seed (compile ()));
    let mk_shard sh_id =
      let sh =
        {
          sh_id;
          sh_shards = shards;
          sh_app = app;
          sh_compile = compile;
          sh_verify = verify_before_deploy;
          sh_hosts = List.rev shard_hosts.(sh_id);
          sh_sched = Osim.Sched.create ();
          sh_outbox = Osim.Sched.make_outbox ~limit:outbox_limit ();
          sh_task_host = Hashtbl.create 64;
          sh_task_of = Hashtbl.create 64;
          sh_metrics = Obs.Metrics.create ();
          sh_antibody = None;
          sh_generation = 0;
          sh_corpus = [];
          sh_statics = None;
          sh_attempts = 0;
          sh_infections = 0;
          sh_crashes = 0;
          sh_blocked = 0;
          sh_analyses = 0;
          sh_infection_log = [];
          sh_ab_origin = None;
          sh_out_rev = [];
          sh_events_rev = [];
          sh_first_pub = None;
          sh_ab_prov = None;
        }
      in
      register_metrics sh;
      List.iter
        (fun host ->
          let task =
            Osim.Sched.add sh.sh_sched host.h_server
              ~on_deliver:(fun _payload ->
                (* The moment a message reaches the host: the proxy syncs
                   the newest antibody generation, the attempt counts. *)
                sh.sh_attempts <- sh.sh_attempts + 1;
                sync_antibody sh host)
          in
          Hashtbl.replace sh.sh_task_host task.Osim.Sched.sk_id host;
          Hashtbl.replace sh.sh_task_of host.h_id task)
        sh.sh_hosts;
      sh
    in
    {
      c_shards = Array.init shards mk_shard;
      c_config =
        { Osim.Cluster.domains = max 1 domains; shards;
          window_ms = (if window_ms <= 0. then 0.5 else window_ms);
          mailbox_limit = max 1 mailbox_limit;
          max_windows = Osim.Cluster.default_config.Osim.Cluster.max_windows };
      c_topology = topology;
      c_n = n;
      c_windows = 0;
      c_exchanged = 0;
      c_deferred = 0;
      c_merged = [];
      c_seqs = Hashtbl.create 64;
    }

  let hosts c =
    Array.to_list c.c_shards
    |> List.concat_map (fun sh -> sh.sh_hosts)
    |> List.sort (fun a b -> compare a.h_id b.h_id)

  let infected_count c =
    Array.fold_left (fun acc sh -> acc + shard_infected sh) 0 c.c_shards

  (* The next per-source sequence number. Counters advance on the
     calling domain in deterministic host order, so stamps are identical
     across domain counts — and across rounds, monotone per source. *)
  let next_seq c src =
    match Hashtbl.find_opt c.c_seqs src with
    | Some r ->
      let v = !r in
      incr r;
      v
    | None ->
      Hashtbl.add c.c_seqs src (ref 1);
      0

  (** Queue one round of traffic on every uninfected host's inbox, with
      sender provenance: [traffic host] lists [(src, payload)] pairs
      ([src = -1] for external traffic). Per-source sequence numbers are
      stamped here. Runs on the calling domain, between cluster rounds. *)
  let post_traffic_from c ~(traffic : host -> (int * string) list) =
    Array.iter
      (fun sh ->
        List.iter
          (fun host ->
            if not host.h_infected then
              let task = Hashtbl.find sh.sh_task_of host.h_id in
              List.iter
                (fun (src, payload) ->
                  let seq = if src < 0 then 0 else next_seq c src in
                  Osim.Sched.post ~src ~seq sh.sh_sched task payload)
                (traffic host))
          sh.sh_hosts)
      c.c_shards

  (** Queue one round of externally-injected traffic ([traffic host],
      oldest first) on every uninfected host's inbox. Runs on the
      calling domain, between cluster rounds. *)
  let post_traffic c ~(traffic : host -> string list) =
    post_traffic_from c ~traffic:(fun host ->
        List.map (fun payload -> (-1, payload)) (traffic host))

  (** Offer an antibody bundle to every shard, as if a broadcast arrived
      from outside the community ([src = -1]) — the supply-chain surface
      a malicious producer would use. Each shard runs the full
      publication validation: a fabricated bundle is rejected on every
      shard (counted in [sweeper_antibody_rejected_total]) while a
      legitimate one is adopted. Runs on the calling domain, between
      cluster rounds. *)
  let inject_antibody ?(vtime = 0.) c ab =
    Array.iter
      (fun sh ->
        apply_envelope sh
          { Osim.Cluster.env_vtime = vtime; env_src = -1; env_seq = 0;
            env_dst = sh.sh_id; env_msg = Antibody_pub (ab, None) })
      c.c_shards

  (* The earliest locally-analyzed publication on any shard. *)
  let first_antibody_vtime c =
    Array.fold_left
      (fun acc sh ->
        match (acc, sh.sh_first_pub) with
        | Some best, Some vt -> Some (Float.min best vt)
        | None, pub -> pub
        | acc, None -> acc)
      None c.c_shards

  (* Merge every shard's registry into the community-level sample list —
     runs on the calling domain while the workers are parked at the
     barrier, so reading gauge closures is race-free. Merging sums; the
     two community clocks are not sums and are recomputed here: the
     virtual clock is the latest shard clock, the first antibody the
     earliest publication (-1 before one exists). *)
  let merge_metrics c =
    let clock =
      Array.fold_left
        (fun acc sh -> Float.max acc (Osim.Sched.vclock_ms sh.sh_sched))
        0. c.c_shards
    in
    let first_ab = Option.value ~default:(-1.) (first_antibody_vtime c) in
    let at_barrier (s : Obs.Metrics.sample) =
      match s.Obs.Metrics.s_name with
      | "sweeper_sched_vclock_ms" ->
        { s with Obs.Metrics.s_value = Obs.Metrics.Sample_gauge clock }
      | "sweeper_community_first_antibody_ms" ->
        { s with Obs.Metrics.s_value = Obs.Metrics.Sample_gauge first_ab }
      | _ -> s
    in
    c.c_merged <-
      Obs.Metrics.merge_samples
        (Array.to_list
           (Array.map (fun sh -> Obs.Metrics.snapshot sh.sh_metrics) c.c_shards))
      |> List.map at_barrier

  (** Run the cluster until every shard is quiescent and no mail is in
      flight: one worm round, typically preceded by {!post_traffic}. *)
  let run_round c =
    let stats =
      Osim.Cluster.run c.c_config c.c_shards
        ~window:(fun _i sh ~inbox ~until -> window_fn sh ~inbox ~until)
        ~at_barrier:(fun ~window:_ -> merge_metrics c)
    in
    c.c_windows <- c.c_windows + stats.Osim.Cluster.st_windows;
    c.c_exchanged <- c.c_exchanged + stats.Osim.Cluster.st_exchanged;
    c.c_deferred <- c.c_deferred + stats.Osim.Cluster.st_deferred;
    stats

  let merged_metrics c = c.c_merged

  (** The ground-truth infection log across all shards, sorted by
      (arrival vtime, victim) — what forensic reconstruction from the
      netlogs must reproduce exactly. *)
  let infection_log c =
    Array.to_list c.c_shards
    |> List.concat_map (fun sh -> List.rev sh.sh_infection_log)
    |> List.sort (fun a b ->
           match compare a.inf_arrival b.inf_arrival with
           | 0 -> compare a.inf_victim b.inf_victim
           | n -> n)

  (** Provenance of the community's first antibody: the earliest origin
      any shard recorded (local analysis or adopted broadcast). *)
  let antibody_origin c =
    Array.to_list c.c_shards
    |> List.filter_map (fun sh -> sh.sh_ab_origin)
    |> List.fold_left
         (fun acc o ->
           match acc with
           | None -> Some o
           | Some best ->
             if (o.ao_vtime, o.ao_host) < (best.ao_vtime, best.ao_host) then
               Some o
             else acc)
         None

  let summary c =
    let shs = Array.to_list c.c_shards in
    let sum f = List.fold_left (fun acc sh -> acc + f sh) 0 shs in
    let events =
      List.concat_map (fun sh -> List.rev sh.sh_events_rev) shs
      |> List.sort compare
    in
    let per_host f =
      hosts c |> List.map (fun h -> (h.h_id, f h))
    in
    {
      sm_hosts = c.c_n;
      sm_domains = c.c_config.Osim.Cluster.domains;
      sm_shards = c.c_config.Osim.Cluster.shards;
      sm_topology = Osim.Cluster.topology_name c.c_topology;
      sm_windows = c.c_windows;
      sm_exchanged = c.c_exchanged;
      sm_deferred = c.c_deferred;
      sm_backpressures = sum (fun sh -> Osim.Sched.backpressures sh.sh_sched);
      sm_instructions = sum (fun sh -> Osim.Sched.instructions sh.sh_sched);
      sm_attempts = sum (fun sh -> sh.sh_attempts);
      sm_infections = sum (fun sh -> sh.sh_infections);
      sm_crashes = sum (fun sh -> sh.sh_crashes);
      sm_blocked = sum (fun sh -> sh.sh_blocked);
      sm_analyses = sum (fun sh -> sh.sh_analyses);
      sm_infected_hosts = infected_count c;
      sm_first_antibody_vtime_ms = first_antibody_vtime c;
      sm_events = events;
      sm_icounts =
        per_host (fun h -> h.h_proc.Osim.Process.cpu.Vm.Cpu.icount);
      sm_outputs = per_host (fun h -> Osim.Process.committed_outputs h.h_proc);
      sm_infection_log = infection_log c;
      sm_adoptions =
        List.filter_map
          (fun sh ->
            Option.map (fun prov -> (sh.sh_id, prov)) sh.sh_ab_prov)
          shs
        |> List.sort compare;
      sm_ab_origin = antibody_origin c;
    }
end
