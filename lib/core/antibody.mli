(** Antibodies: the shareable defense artifacts, distributed piecemeal as
    each analysis stage completes.

    The concrete manifestation is a set of VSEFs plus, when available, an
    input signature and the exploit-triggering input. Untrusting consumers
    verify a bundle by replaying the included exploit against their own
    copy of the application ({!verify}). By construction VSEFs cannot be
    harmful: an incorrect one only adds monitoring. *)

type stage =
  | Initial  (** core-dump VSEF only — available within milliseconds *)
  | Refined  (** plus memory-bug-derived VSEFs *)
  | Full     (** plus taint VSEF, input signature, exploit input *)

type t = {
  ab_app : string;  (** registry key of the vulnerable application *)
  ab_stage : stage;
  ab_vsefs : Vsef.t list;
  ab_signature : Signature.t option;
  ab_exploit_input : string list option;
      (** the triggering stream, for consumer-side verification *)
}

val stage_to_string : stage -> string

val initial : app:string -> Vsef.t -> t
val refine : t -> Vsef.t list -> t

val complete :
  t ->
  ?taint_vsef:Vsef.t ->
  signature:Signature.t ->
  exploit_input:string list ->
  unit ->
  t

val validate_feasible :
  Osim.Process.t -> Static_an.Absint.t -> t -> (string * int list) list
(** Check every [Heap_bounds]/[Store_guard] against the interval
    analysis: the guarded pc must be a statically feasible unsafe write
    ({!Static_an.Absint.feasible_unsafe_write}). Dynamically-derived
    VSEFs provably pass; a non-empty result means the bundle asks
    consumers to monitor a store no CFG-following execution can overflow
    at — fabricated or corrupted. *)

val validate_static :
  Osim.Process.t -> Static_an.Staint.t -> t -> (string * int list) list
(** Check every taint filter's propagation locations against the static
    may-propagate set of [proc]'s code. The set covers executions that
    follow the CFG, so a filter generated from such a run passes; a
    non-empty result (as [(vsef name, offending pcs)]) means the bundle
    is stale, corrupted, or names a pc only a hijacked execution
    reached. *)

val deploy : Osim.Process.t -> t -> Vsef.installed list
(** Install the VSEFs on the process and the input signature at its
    network proxy. *)

val undeploy : Osim.Process.t -> t -> Vsef.installed list -> unit

val verify : t -> compile:(unit -> Minic.Codegen.compiled) -> bool
(** Consumer-side verification: feed the included exploit to a fresh,
    sandboxed copy of the application and check that it misbehaves. *)
