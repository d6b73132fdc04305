(** Vulnerability-Specific Execution Filters.

    A VSEF is the instruction-granular monitoring the heavyweight analyses
    would have performed, restricted to the handful of instructions the
    vulnerability actually involves — cheap enough for normal execution.
    Each {!check} corresponds to one of the VSEF families of the paper's
    Section 3.3.

    Because every host randomizes its library base independently, a VSEF
    names instructions by {!loc} — segment plus offset — and is translated
    to concrete addresses when installed on a process. This is what makes
    antibodies shareable between hosts with different layouts. *)

(** A relocatable code location: which image, and the offset within it. *)
type loc = {
  l_seg : [ `App | `Lib ];
  l_off : int;
}

val loc_of_pc : Osim.Process.t -> int -> loc
(** Translate an absolute pc of the given process into a location. *)

val pc_of_loc : Osim.Process.t -> loc -> int
(** Concrete address of a location in the given process. *)

type check =
  | Side_stack of { entry : loc; ret : loc; fn : string }
      (** record the return address at function entry, compare at the ret *)
  | Null_check of { at : loc }
      (** no memory access below the NULL guard page at this instruction *)
  | Free_guard of { free_entry : loc }
      (** at [free]'s entry: the argument must not be an already-freed chunk *)
  | Double_free_site of { call : loc }
      (** the same check, at one specific call site *)
  | Heap_bounds of { store : loc; caller : string option;
                     caller_range : (loc * loc) option }
      (** stores at this instruction must stay inside a live chunk; when
          [caller_range] is set the check applies only for that caller *)
  | Store_guard of { store : loc }
      (** stores at this instruction must not hit a saved frame pointer or
          return-address slot of any active frame *)
  | Taint_filter of { source_sysno : int; prop : loc list; sink : loc }
      (** taint tracking restricted to the listed instructions *)

type origin = From_coredump | From_membug | From_taint

type t = {
  v_name : string;
  v_app : string;
  v_check : check;
  v_origin : origin;
}

val origin_to_string : origin -> string

val check_to_string : describe:(loc -> string) -> check -> string
(** Render a check; [describe] resolves a location against some process. *)

val default_describe : loc -> string
val to_string : ?describe:(loc -> string) -> t -> string

(** Handle on an installed VSEF, for uninstalling. *)
type installed = {
  i_vsef : t;
  i_hooks : Vm.Cpu.hook_id list;
  i_rollback_hooks : int list;
  i_proc : Osim.Process.t;
}

val install : Osim.Process.t -> t -> installed
(** Install a VSEF, translating its locations to this process's layout.
    The added instrumentation consists of per-pc hooks only. On violation
    the hooks raise {!Detection.Detected}, vetoing the instruction. A
    {!Taint_filter} hooks exactly the propagation locations it names;
    vetting those against the static may-propagate set is
    {!Antibody.validate_static}'s job, before deployment. *)

val uninstall : installed -> unit

val footprint : installed -> int
(** How many program locations this VSEF hooks — the paper's argument that
    VSEFs are lightweight. *)
