(** Antibodies: the shareable defense artifacts, distributed piecemeal as
    each analysis stage completes (Section 3.3, "Distribution").

    The concrete manifestation is a set of VSEFs plus, when available, an
    input signature and the exploit-triggering input. Untrusting consumers
    can verify a bundle by replaying the included exploit against their own
    copy of the application under heavyweight monitoring — {!verify} does
    exactly that. By construction VSEFs cannot be harmful: an incorrect one
    only adds monitoring. *)

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

let stage_to_string = function
  | Initial -> "initial"
  | Refined -> "refined"
  | Full -> "full"

let initial ~app vsef =
  { ab_app = app; ab_stage = Initial; ab_vsefs = [ vsef ];
    ab_signature = None; ab_exploit_input = None }

let refine ab vsefs = { ab with ab_stage = Refined; ab_vsefs = ab.ab_vsefs @ vsefs }

let complete ab ?taint_vsef ~signature ~exploit_input () =
  {
    ab with
    ab_stage = Full;
    ab_vsefs = ab.ab_vsefs @ Option.to_list taint_vsef;
    ab_signature = Some signature;
    ab_exploit_input = Some exploit_input;
  }

(** Statically validate an antibody's overflow checks against the
    interval analysis of [proc]'s code: the guarded store of every
    [Heap_bounds]/[Store_guard] must be a {e statically feasible} unsafe
    write — a store whose effective-address interval can leave the valid
    regions. Dynamically-derived VSEFs provably pass (the overflow
    retired at that pc, so its interval cannot be proven safe); a
    violation means the bundle names a pc no CFG-following execution can
    overflow at — a fabricated or corrupted artifact asking consumers to
    monitor the wrong instruction. Returns [(vsef name, offending pcs)]. *)
let validate_feasible (proc : Osim.Process.t) (absint : Static_an.Absint.t) ab
    =
  List.filter_map
    (fun (v : Vsef.t) ->
      let store =
        match v.Vsef.v_check with
        | Vsef.Heap_bounds { store; _ } | Vsef.Store_guard { store } ->
          Some store
        | Vsef.Side_stack _ | Vsef.Null_check _ | Vsef.Free_guard _
        | Vsef.Double_free_site _ | Vsef.Taint_filter _ ->
          None
      in
      match store with
      | None -> None
      | Some loc ->
        let pc = Vsef.pc_of_loc proc loc in
        if Static_an.Absint.feasible_unsafe_write absint pc then None
        else Some (v.Vsef.v_name, [ pc ]))
    ab.ab_vsefs

(** Statically validate an antibody's taint filters against an analysis
    of [proc]'s code: every propagation location of every
    [Vsef.Taint_filter] must lie in the static may-propagate set [S].
    [S] contains every pc the dynamic engine marks on an execution that
    follows the CFG, so an honest filter passes when its propagation
    chain ran before the control transfer the attack hijacked. A
    non-empty return means the bundle is stale (built for different
    code), corrupted, or names a pc only a hijacked execution reached —
    what an untrusting consumer wants to know before deploying a shared
    artifact. Returns the violations as [(vsef name, offending pcs)]. *)
let validate_static (proc : Osim.Process.t) (static : Static_an.Staint.t) ab =
  List.filter_map
    (fun (v : Vsef.t) ->
      match v.Vsef.v_check with
      | Vsef.Taint_filter { prop; _ } -> (
        let bad =
          List.filter
            (fun loc ->
              not
                (Static_an.Staint.may_propagate static
                   (Vsef.pc_of_loc proc loc)))
            prop
        in
        match bad with
        | [] -> None
        | _ -> Some (v.Vsef.v_name, List.map (Vsef.pc_of_loc proc) bad))
      | Vsef.Side_stack _ | Vsef.Null_check _ | Vsef.Free_guard _
      | Vsef.Double_free_site _ | Vsef.Heap_bounds _ | Vsef.Store_guard _ ->
        None)
    ab.ab_vsefs

(** Deploy an antibody on a host: install the VSEFs on the process and the
    input signature at its network proxy. Returns the installed handles. *)
let deploy (proc : Osim.Process.t) ab =
  let installed = List.map (Vsef.install proc) ab.ab_vsefs in
  (match ab.ab_signature with
  | Some s ->
    Osim.Netlog.add_filter proc.Osim.Process.net
      ~name:("antibody-" ^ ab.ab_app) (Signature.to_filter s)
  | None -> ());
  installed

let undeploy (proc : Osim.Process.t) ab installed =
  List.iter Vsef.uninstall installed;
  if ab.ab_signature <> None then
    Osim.Netlog.remove_filter proc.Osim.Process.net ~name:("antibody-" ^ ab.ab_app)

(** Consumer-side verification: feed the included exploit input to a fresh,
    sandboxed copy of the application and check that it misbehaves (faults
    or reaches exec). Verification is deferred by time-critical consumers;
    this is the check they run afterwards. *)
let verify ab ~(compile : unit -> Minic.Codegen.compiled) =
  match ab.ab_exploit_input with
  | None -> false
  | Some stream ->
    let proc = Osim.Process.load ~aslr:true ~seed:97 (compile ()) in
    proc.Osim.Process.sandbox <- true;
    let rec feed = function
      | [] -> false
      | msg :: rest -> (
        (match Osim.Process.send_message proc msg with
        | Ok _ | Error _ -> ());
        match Osim.Process.run ~fuel:20_000_000 proc with
        | Vm.Cpu.Faulted _ -> true
        | Vm.Cpu.Halted -> proc.Osim.Process.compromised <> None
        | Vm.Cpu.Blocked -> feed rest
        | Vm.Cpu.Out_of_fuel -> false)
    in
    feed stream
