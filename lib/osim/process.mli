(** A simulated OS process: a loaded program (app + libc images), its CPU
    and memory, the network endpoint, and the syscall layer — including the
    FlashBack-style syscall-result log that keeps re-execution
    deterministic (a replayed [time]/[random] returns what the original
    execution saw). *)

type t = {
  cpu : Vm.Cpu.t;
  mem : Vm.Memory.t;
  layout : Vm.Layout.t;
  app_image : Vm.Asm.image;
  lib_image : Vm.Asm.image;
  net : Netlog.t;
  data_symbols : (string, int) Hashtbl.t;
  absint : Static_an.Absint.t;
      (** interval abstract interpretation of the loaded code, computed
          once per load/template: feeds bounds-proof elision in the block
          tier and static antibody feasibility checks *)
  mutable compromised : string option;
      (** [Some cmd] once an exploit reached [system]/[exec] *)
  mutable exit_code : int option;
  mutable outputs : (int * string) list;  (** serviced msg id, payload (rev) *)
  mutable responded : Netlog.Int_set.t;   (** msgs whose response was committed *)
  mutable sandbox : bool;  (** drop all outputs (analysis re-execution) *)
  mutable cur_msg : int;   (** id of the message currently being serviced *)
  mutable console : string list;  (** [_log] output, most recent first *)
  mutable sysres : int array;
  mutable sysres_len : int;
  mutable sysres_pos : int;
  mutable clock : int;
  rng : Random.State.t;
  mutable rollback_hooks : (int * (unit -> unit)) list;
  mutable next_rollback_hook : int;
  mutable flight : Obs.Recorder.t option;
      (** the attached VM flight recorder, if any; crash reports dump its
          ring (see {!Sweeper.Coredump}) *)
}

val add_rollback_hook : t -> (unit -> unit) -> int
(** Register a callback to run after every rollback — instrumentation that
    keeps shadow state about the process re-seeds itself here. *)

val remove_rollback_hook : t -> int -> unit
val run_rollback_hooks : t -> unit

val images : t -> Vm.Asm.image list

val describe_addr : t -> int -> string
(** Pretty-print an address against this process's symbol tables. *)

val load : ?aslr:bool -> ?seed:int -> Minic.Codegen.compiled -> t
(** Load a compiled application (against the memoized libc) into a fresh
    process. [seed] drives both layout randomization and the process's
    [random] syscall, making whole experiments reproducible. *)

type template
(** A loaded-but-never-run master copy: the full load pipeline (placement,
    linking, CFG recovery, block compilation) executed once, held as the
    shared copy-on-write baseline and shared compiled blocks for
    {!instantiate}. *)

val template : ?aslr:bool -> ?seed:int -> Minic.Codegen.compiled -> template

val instantiate : template -> t
(** Stamp out a process behaviourally identical to
    [load ~aslr ~seed compiled] with the template's parameters, at
    O(mapped pages) cost: COW memory clone, register/PRNG state restored
    from the post-load snapshot, and the template's compiled basic blocks
    installed with fresh per-CPU block state (hooks, invalidations and
    elision trips stay per instance). All clones of one template share a
    single layout (ASLR) draw — pool templates over distinct seeds for
    population diversity. *)

val run : ?fuel:int -> t -> Vm.Cpu.outcome
(** Run until halt, input-block, fault, or fuel exhaustion. *)

val send_message :
  ?src:int -> ?seq:int -> ?vtime:float -> t -> string -> (int, string) result
(** Deliver a network message (through the input filters), stamping its
    {!Netlog.provenance}: sending host [src], per-source sequence [seq],
    and receiver-side arrival virtual time [vtime] (defaults: external). *)

val committed_outputs : t -> (int * string) list
(** Responses committed so far, oldest first. *)

val system_addr : t -> int
(** Address of libc [system] in this process — the return-to-libc target
    an exploit must guess under ASLR. *)
