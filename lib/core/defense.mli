(** The community defense, mechanically: a fleet of real (simulated) hosts
    in the Producer/Consumer arrangement of the paper's Section 6.

    Producers run the complete Sweeper stack; when one is probed it runs
    the full analysis and publishes an antibody. Consumers run lightweight
    monitoring only, deploy published antibodies (optionally verifying them
    first), and recover by rollback when attacked. This is the bridge
    between the per-host machinery of {!Orchestrator} and the
    population-level claims of the epidemic model.

    Every community runs on one engine, {!Sharded}: hosts are tasks on
    per-shard cooperative schedulers ({!Osim.Sched}), traffic is posted to
    per-host inboxes, and service, analysis, recovery, and antibody
    propagation interleave in simulated time. One shard on one domain is
    the serial reference run. *)

type role = Producer | Consumer

type host = {
  h_id : int;
  h_role : role;
  h_proc : Osim.Process.t;
  h_server : Osim.Server.t;
  mutable h_infected : bool;
  mutable h_deployed : int;  (** antibody generation installed *)
  mutable h_installed : Vsef.installed list;  (** currently-armed VSEFs *)
}

(** One confirmed infection — the simulator's ground truth that forensic
    trace-back is validated against. Read off the victim's state at the
    moment the compromise surfaced; reconstruction must recover the same
    tuple from netlogs alone. *)
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
    analyzed. *)
type ab_origin = {
  ao_host : int;    (** the producer that ran the analysis *)
  ao_vtime : float; (** vtime of the detection *)
  ao_msg : int;     (** netlog id of the attack message on that host *)
  ao_src : int;     (** provenance source of that message *)
  ao_seq : int;     (** its sender-side sequence number *)
}

(** The domain-sharded community: hosts partitioned across shards, each
    shard a single-threaded {!Osim.Sched} with its own {!Obs.Metrics}
    registry, executed in lockstep windows by
    {!Osim.Cluster}. Antibody knowledge crosses shards only as envelope
    values at virtual-clock barriers, so [domains = N] and [domains = 1]
    are bit-identical on everything in {!Sharded.summary} — the
    differential oracle asserted by the scheduler test suite. *)
module Sharded : sig
  (** Cross-shard mail: first local antibody publications and confirmed
      exploit samples. Adoption and refinement never re-broadcast, so the
      protocol is loop-free by construction. *)
  type msg =
    | Antibody_pub of Antibody.t * ab_origin option
        (** broadcast with the provenance of the attack message the
            antibody was minted against *)
    | Sample of string

  type community

  val create :
    ?verify_before_deploy:bool ->
    ?domains:int ->
    ?shards:int ->
    ?window_ms:float ->
    ?mailbox_limit:int ->
    ?outbox_limit:int ->
    ?topology:Osim.Cluster.topology ->
    app:string ->
    compile:(unit -> Minic.Codegen.compiled) ->
    n:int ->
    producers:int ->
    seed:int ->
    unit ->
    community
  (** Build [n] hosts on the calling domain (the first [producers] by
      global id run the full stack), place them by [topology], and wire
      per-shard schedulers. Hosts are copy-on-write instances of up to 64
      layout templates (template [k] is loaded with seed [seed + k]),
      which keeps per-host creation cost flat at large [n]. [shards]
      defaults to [domains]; fixing [shards] while varying [domains] must
      not change any result.

      Every antibody a shard publishes or adopts is validated first. Two
      static bars always apply: every [Heap_bounds]/[Store_guard] pc must
      be a statically feasible unsafe write, and every taint-filter pc
      must lie in the static may-propagate set S. With
      [verify_before_deploy] the bundle is also sandbox-verified by
      exploit replay. Rejections count in
      [sweeper_antibody_rejected_total] by [reason]
      (["static-infeasible"], ["pcs-outside-S"], ["replay-failed"]), and
      each is recorded in [sm_events] as ["antibody-rejected:<reason>"]:
      under the analyzing producer's host id when its own bundle fails,
      under [-1] when a received one does. A static rejection appends
      [" <vsef>@<loc>[,<loc>...]"] for each offending VSEF, with each
      location rendered by {!Vsef.default_describe}. *)

  val hosts : community -> host list
  (** All hosts, sorted by global id. *)

  val infected_count : community -> int

  val post_traffic : community -> traffic:(host -> string list) -> unit
  (** Queue one round of externally-injected traffic on every uninfected
      host's inbox. Call between rounds, on the calling domain. *)

  val post_traffic_from :
    community -> traffic:(host -> (int * string) list) -> unit
  (** Like {!post_traffic}, but each payload carries its sending host id
      ([-1] for external traffic). Per-source sequence numbers are
      stamped deterministically on the calling domain, so provenance is
      identical across domain counts. *)

  val inject_antibody : ?vtime:float -> community -> Antibody.t -> unit
  (** Offer a bundle to every shard as an externally-sourced broadcast —
      the supply-chain surface a malicious producer would use. Each
      shard runs the full publication validation: fabricated bundles
      are rejected everywhere (a per-shard "antibody-rejected:<reason>"
      event plus the [sweeper_antibody_rejected_total] counter), legitimate
      ones are adopted. Call between rounds, on the calling domain. *)

  val run_round : community -> Osim.Cluster.stats
  (** Run the cluster barrier loop until every shard is quiescent and no
      mail is in flight. *)

  val merged_metrics : community -> Obs.Metrics.sample list
  (** The community-level metric samples merged from every shard's
      registry at the most recent barrier. Counters and gauges sum across
      shards, except the two clocks: [sweeper_sched_vclock_ms] is the
      latest shard clock and [sweeper_community_first_antibody_ms] is
      [sm_first_antibody_vtime_ms] (-1 before an antibody exists). *)

  (** Everything the differential oracle compares, plus run statistics.
      All times are virtual (simulated ms); wall-clock never appears. *)
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
        (** (vtime, global host id, kind), sorted; a kind may carry a
            detail after a colon ("filtered:<name>",
            "antibody-rejected:<reason>[ <vsef>@<loc>,...]") *)
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

  val summary : community -> summary

  val infection_log : community -> infection list
  (** The ground-truth infection log across all shards, sorted by
      (arrival vtime, victim) — what forensic reconstruction from the
      netlogs must reproduce exactly. *)

  val antibody_origin : community -> ab_origin option
  (** Provenance of the community's first antibody: the earliest origin
      any shard recorded (local analysis or adopted broadcast). *)
end
