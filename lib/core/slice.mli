(** Dynamic slicing over a full dependence graph.

    During replay every executed instruction becomes a node: data
    dependences through the last writer of each register and memory byte,
    flag dependences through the last comparison, control dependences
    through the last branch. The backward slice from the faulting
    instruction is everything that influenced it — a superset of what
    taint analysis sees, which is why it acts as the sanity check on every
    other analysis. Forward slices (everything an input influenced) come
    from the same graph. Every dependence names an earlier node, so each
    slice is one linear sweep: backward descends, forward ascends. *)

module Int_set : Set.S with type elt = int and type t = Set.Make(Int).t

(** The collected graph (opaque; kept inside a {!session}). *)
type t

type summary = {
  s_nodes : int;        (** dynamic instructions in the window *)
  s_slice_size : int;   (** dynamic instructions in the slice *)
  s_pcs : Int_set.t;    (** static instructions in the slice *)
  s_msgs : Int_set.t;   (** input messages the fault depends on *)
  s_fault_pc : int;
}

type result = {
  sl_summary : summary;
  sl_instructions : int;
}

val run : ?fuel:int -> ?window:int -> Osim.Process.t -> result
(** Attach the graph collector, run the replay, slice backward from the
    fault (or from the final instruction if the replay ended cleanly).
    [window] is the replay's expected length in instructions (the
    slicing stage passes its context's [cx_window]): the graph is
    allocated once for [min window fuel] nodes. Without it, or past it,
    the graph grows by doubling. *)

val verifies : summary -> int -> bool
(** Does the slice contain an instruction another analysis blamed? The
    slice is the ground truth: a claim outside it is wrong. *)

(** A forward slice: every dynamic instruction influenced by a seed set. *)
type forward = {
  fw_size : int;       (** dynamic instructions influenced *)
  fw_pcs : Int_set.t;  (** static instructions influenced *)
}

(** A replay that keeps its graph for further queries. *)
type session = {
  graph : t;
  outcome : Vm.Cpu.outcome;
  backward : summary;
}

val run_session : ?fuel:int -> ?window:int -> Osim.Process.t -> session
(** {!run}, keeping the graph for forward queries. *)

val forward_from_message : session -> msg_id:int -> forward
(** Everything influenced by the given input message. *)
