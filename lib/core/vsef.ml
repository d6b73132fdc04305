(** Vulnerability-Specific Execution Filters.

    A VSEF is the instruction-granular monitoring the heavyweight analyses
    would have performed, restricted to the handful of instructions the
    vulnerability actually involves — so it is cheap enough for normal
    execution. Each check below corresponds to one of the VSEF families of
    the paper (Section 3.3): return-address side stacks, NULL checks,
    double-free guards, heap bounds checks at a specific (optionally
    callsite-qualified) store, stack-smash store guards, and taint filters
    restricted to a propagation-instruction list.

    Because every host randomizes its library base independently, a VSEF
    names instructions by {!loc} — segment plus offset — and is translated
    to concrete addresses when installed on a process. This is what makes
    antibodies shareable between hosts with different layouts. *)

(** A relocatable code location: which image, and the offset within it. *)
type loc = {
  l_seg : [ `App | `Lib ];
  l_off : int;
}

(** Translate an absolute pc of [p] into a relocatable location. *)
let loc_of_pc (p : Osim.Process.t) pc =
  let lib = p.lib_image in
  if pc >= lib.Vm.Asm.base && pc < lib.Vm.Asm.limit then
    { l_seg = `Lib; l_off = pc - lib.Vm.Asm.base }
  else { l_seg = `App; l_off = pc - p.app_image.Vm.Asm.base }

(** Concrete address of [loc] in process [p]. *)
let pc_of_loc (p : Osim.Process.t) loc =
  match loc.l_seg with
  | `Lib -> p.lib_image.Vm.Asm.base + loc.l_off
  | `App -> p.app_image.Vm.Asm.base + loc.l_off

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

let origin_to_string = function
  | From_coredump -> "memory-state analysis"
  | From_membug -> "memory-bug detection"
  | From_taint -> "taint analysis"

(** Render a check; [describe] resolves a {!loc} against some process. *)
let check_to_string ~describe = function
  | Side_stack { fn; ret; _ } ->
    Printf.sprintf "use a side stack for %s (ret at %s)" fn (describe ret)
  | Null_check { at } -> Printf.sprintf "check for NULL pointer at %s" (describe at)
  | Free_guard _ -> "check for double frees"
  | Double_free_site { call } ->
    Printf.sprintf "%s should not double-free" (describe call)
  | Heap_bounds { store; caller = Some c; _ } ->
    Printf.sprintf "heap bounds-check %s when called by %s" (describe store) c
  | Heap_bounds { store; caller = None; _ } ->
    Printf.sprintf "heap bounds-check %s" (describe store)
  | Store_guard { store } ->
    Printf.sprintf "%s should not overflow stack buffer" (describe store)
  | Taint_filter { prop; sink; _ } ->
    Printf.sprintf "taint-track %d instructions, sink at %s" (List.length prop)
      (describe sink)

let default_describe loc =
  Printf.sprintf "%s+0x%x"
    (match loc.l_seg with `App -> "app" | `Lib -> "lib")
    loc.l_off

let to_string ?(describe = default_describe) v =
  Printf.sprintf "VSEF[%s] %s  (from %s)" v.v_name
    (check_to_string ~describe v.v_check)
    (origin_to_string v.v_origin)

(** Handle on an installed VSEF, for uninstalling. *)
type installed = {
  i_vsef : t;
  i_hooks : Vm.Cpu.hook_id list;
  i_rollback_hooks : int list;
  i_proc : Osim.Process.t;
}

let trip v ~pc detail =
  Detection.detect (Detection.Vsef_trip v.v_name) ~pc ~detail

let overlaps_slot ~addr ~size ~slot = addr < slot + 4 && addr + size > slot

(* Walk the frame-pointer chain collecting (saved-fp slot, ret slot) pairs. *)
let frame_slots (p : Osim.Process.t) =
  let layout = p.layout in
  let rec go acc fp n =
    if n > 64 || fp < layout.Vm.Layout.stack_limit
       || fp >= layout.Vm.Layout.stack_top
    then List.rev acc
    else
      let next = Vm.Memory.load_word p.mem fp in
      go ((fp, fp + 4) :: acc) next (n + 1)
  in
  go [] (Vm.Cpu.get_reg p.cpu Vm.Isa.FP) 0

(* A live-chunk shadow map maintained from allocation syscalls, seeded from
   the heap image — "much of the overhead comes from monitoring calls to
   malloc and free" (Section 5.3). *)
type heap_shadow = { live : (int, int) Hashtbl.t (* user ptr -> size *) }

let seed_heap_shadow sh (p : Osim.Process.t) =
  Hashtbl.reset sh.live;
  List.iter
    (fun (c : Vm.Alloc.chunk) ->
      match c.c_state with
      | Vm.Alloc.Chunk_alloc -> Hashtbl.replace sh.live c.c_ptr c.c_size
      | Vm.Alloc.Chunk_freed | Vm.Alloc.Chunk_corrupt _ -> ())
    (Vm.Alloc.chunks p.mem p.layout)

let make_heap_shadow (p : Osim.Process.t) =
  let sh = { live = Hashtbl.create 64 } in
  seed_heap_shadow sh p;
  sh

let shadow_update sh (eff : Vm.Event.effect_) =
  match eff.e_sys with
  | Vm.Event.Io_alloc { ptr; size } -> Hashtbl.replace sh.live ptr size
  | Vm.Event.Io_free { ptr; status = `Ok } -> Hashtbl.remove sh.live ptr
  | _ -> ()

let in_live_chunk sh addr =
  Hashtbl.fold
    (fun ptr size acc -> acc || (addr >= ptr && addr < ptr + size))
    sh.live false

(* All Syscall-instruction addresses in the loaded images for the given
   syscall numbers — the hook points for allocation/source monitoring. *)
let syscall_sites (p : Osim.Process.t) sysnos =
  let sites = ref [] in
  List.iter
    (fun (img : Vm.Asm.image) ->
      Vm.Program.iteri
        (fun pc instr ->
          match instr with
          | Vm.Isa.Syscall n when List.mem n sysnos -> sites := pc :: !sites
          | _ -> ())
        img.Vm.Asm.code)
    (Osim.Process.images p);
  !sites

(** Install a VSEF on a process, translating its relocatable locations to
    this process's layout. The added instrumentation consists of per-pc
    hooks only — the VSEF footprint the paper measures. *)
let install (p : Osim.Process.t) (v : t) : installed =
  let cpu = p.cpu in
  let pc_of = pc_of_loc p in
  let rollback_hooks = ref [] in
  let hooks =
    match v.v_check with
    | Side_stack { entry; ret; _ } ->
      let side : int list ref = ref [] in
      let on_entry (_ : Vm.Event.effect_) =
        (* At function entry, sp points at the return address. *)
        let sp = Vm.Cpu.get_reg cpu Vm.Isa.SP in
        side := Vm.Memory.load_word p.mem sp :: !side
      in
      let on_ret (eff : Vm.Event.effect_) =
        match (!side, eff.e_ctrl) with
        | expected :: rest, Vm.Event.Ret_to ->
          let actual = eff.e_ctrl_a in
          side := rest;
          if actual <> expected then
            trip v ~pc:eff.e_pc
              (Printf.sprintf "return address overwritten: 0x%x -> 0x%x"
                 expected actual)
        | _ -> ()
      in
      [ Vm.Cpu.add_pc_hook cpu ~pc:(pc_of entry) on_entry;
        Vm.Cpu.add_pc_hook cpu ~pc:(pc_of ret) on_ret ]
    | Null_check { at } ->
      let pc = pc_of at in
      let check (eff : Vm.Event.effect_) =
        let bad (a : Vm.Event.access) = a.a_addr < 0x10000 in
        if List.exists bad eff.e_mem_reads || List.exists bad eff.e_mem_writes
        then trip v ~pc "NULL pointer dereference blocked"
      in
      [ Vm.Cpu.add_pc_hook cpu ~pc check ]
    | Free_guard { free_entry } ->
      let check (eff : Vm.Event.effect_) =
        (* At free's entry, sp -> return address; arg0 sits above it. *)
        let sp = Vm.Cpu.get_reg cpu Vm.Isa.SP in
        let ptr = Vm.Memory.load_word p.mem (sp + 4) in
        if ptr <> 0 && ptr >= p.layout.Vm.Layout.heap_base then begin
          let magic = Vm.Memory.load_word p.mem (ptr - 4) in
          if magic = Vm.Alloc.magic_freed then
            trip v ~pc:eff.e_pc
              (Printf.sprintf "double free of 0x%x blocked" ptr)
        end
      in
      [ Vm.Cpu.add_pc_hook cpu ~pc:(pc_of free_entry) check ]
    | Double_free_site { call } ->
      let check (eff : Vm.Event.effect_) =
        (* At the call instruction, sp points at arg0. *)
        let sp = Vm.Cpu.get_reg cpu Vm.Isa.SP in
        let ptr = Vm.Memory.load_word p.mem sp in
        if ptr <> 0 && ptr >= p.layout.Vm.Layout.heap_base then begin
          let magic = Vm.Memory.load_word p.mem (ptr - 4) in
          if magic = Vm.Alloc.magic_freed then
            trip v ~pc:eff.e_pc
              (Printf.sprintf "double free of 0x%x blocked at callsite" ptr)
        end
      in
      [ Vm.Cpu.add_pc_hook cpu ~pc:(pc_of call) check ]
    | Heap_bounds { store; caller_range; _ } ->
      let sh = make_heap_shadow p in
      (* Sequential stores into one buffer dominate (string copies), so a
         one-entry chunk cache makes the common check O(1). Any free or
         rollback invalidates it. *)
      let cached = ref (0, 0) in
      (* The shadow mirrors the process's heap; a rollback changes the heap
         underneath it, so re-seed from the restored image. *)
      rollback_hooks :=
        Osim.Process.add_rollback_hook p (fun () ->
            cached := (0, 0);
            seed_heap_shadow sh p)
        :: !rollback_hooks;
      let alloc_hooks =
        List.map
          (fun pc ->
            Vm.Cpu.add_pc_post_hook cpu ~pc (fun (eff : Vm.Event.effect_) ->
                (match eff.e_sys with
                | Vm.Event.Io_free _ -> cached := (0, 0)
                | _ -> ());
                shadow_update sh eff))
          (syscall_sites p [ Vm.Sysno.sys_malloc; Vm.Sysno.sys_free ])
      in
      let in_context () =
        match caller_range with
        | None -> true
        | Some (lo, hi) ->
          (* The store runs inside a library routine; its return address
             sits just above the saved frame pointer. *)
          let fp = Vm.Cpu.get_reg cpu Vm.Isa.FP in
          let ret = Vm.Memory.load_word p.mem (fp + 4) in
          ret >= pc_of lo && ret < pc_of hi
      in
      let in_live addr =
        let lo, hi = !cached in
        if addr >= lo && addr < hi then true
        else if in_live_chunk sh addr then begin
          (match
             Hashtbl.fold
               (fun ptr size acc ->
                 if addr >= ptr && addr < ptr + size then Some (ptr, size)
                 else acc)
               sh.live None
           with
          | Some (ptr, size) -> cached := (ptr, ptr + size)
          | None -> ());
          true
        end
        else false
      in
      let check (eff : Vm.Event.effect_) =
        if in_context () then
          List.iter
            (fun (a : Vm.Event.access) ->
              if
                a.a_addr >= p.layout.Vm.Layout.heap_base
                && a.a_addr < p.layout.Vm.Layout.heap_max
                && not (in_live a.a_addr)
              then
                trip v ~pc:eff.e_pc
                  (Printf.sprintf "heap overflow blocked: store to 0x%x"
                     a.a_addr))
            eff.e_mem_writes
      in
      Vm.Cpu.add_pc_hook cpu ~pc:(pc_of store) check :: alloc_hooks
    | Store_guard { store } ->
      (* The frame-slot walk is needed once per function activation, not
         per store: the chain only changes when FP does. *)
      let cached_fp = ref (-1) in
      let cached_slots = ref [] in
      let check (eff : Vm.Event.effect_) =
        let fp = Vm.Cpu.get_reg cpu Vm.Isa.FP in
        if fp <> !cached_fp then begin
          cached_fp := fp;
          cached_slots := frame_slots p
        end;
        let slots = !cached_slots in
        List.iter
          (fun (a : Vm.Event.access) ->
            List.iter
              (fun (fp_slot, ret_slot) ->
                if
                  overlaps_slot ~addr:a.a_addr ~size:a.a_size ~slot:fp_slot
                  || overlaps_slot ~addr:a.a_addr ~size:a.a_size ~slot:ret_slot
                then
                  trip v ~pc:eff.e_pc
                    (Printf.sprintf
                       "stack smashing blocked: store to frame slot 0x%x"
                       a.a_addr))
              slots)
          eff.e_mem_writes
      in
      [ Vm.Cpu.add_pc_hook cpu ~pc:(pc_of store) check ]
    | Taint_filter { prop; sink; _ } ->
      (* Taint tracking restricted to the propagation instructions the full
         analysis identified, plus the recv sites as sources. *)
      let byte_taint : (int, unit) Hashtbl.t = Hashtbl.create 256 in
      let reg_taint = Array.make Vm.Isa.num_regs false in
      let source_hooks =
        List.map
          (fun pc ->
            Vm.Cpu.add_pc_post_hook cpu ~pc (fun (eff : Vm.Event.effect_) ->
                match eff.e_sys with
                | Vm.Event.Io_recv { buf; len; _ } ->
                  for i = 0 to len - 1 do
                    Hashtbl.replace byte_taint (buf + i) ()
                  done
                | _ -> ()))
          (syscall_sites p [ Vm.Sysno.sys_recv ])
      in
      let mem_tainted (a : Vm.Event.access) =
        let rec go i =
          i < a.a_size && (Hashtbl.mem byte_taint (a.a_addr + i) || go (i + 1))
        in
        go 0
      in
      let propagate (eff : Vm.Event.effect_) =
        let src_tainted =
          List.exists (fun r -> reg_taint.(Vm.Isa.reg_index r)) eff.e_regs_read
          || List.exists mem_tainted eff.e_mem_reads
        in
        if eff.e_rw_count >= 1 then begin
          reg_taint.(Vm.Isa.reg_index eff.e_rw0) <- src_tainted;
          if eff.e_rw_count >= 2 then
            reg_taint.(Vm.Isa.reg_index eff.e_rw1) <- src_tainted
        end;
        List.iter
          (fun (a : Vm.Event.access) ->
            for i = 0 to a.a_size - 1 do
              if src_tainted then Hashtbl.replace byte_taint (a.a_addr + i) ()
              else Hashtbl.remove byte_taint (a.a_addr + i)
            done)
          eff.e_mem_writes
      in
      let prop_pcs = List.sort_uniq compare (List.map pc_of prop) in
      let prop_hooks =
        List.map (fun pc -> Vm.Cpu.add_pc_post_hook cpu ~pc propagate) prop_pcs
      in
      let sink_check (eff : Vm.Event.effect_) =
        let bad =
          match eff.e_instr with
          | Vm.Isa.Ret -> List.exists mem_tainted eff.e_mem_reads
          | Vm.Isa.CallInd r -> reg_taint.(Vm.Isa.reg_index r)
          | Vm.Isa.Store (_, _, rs) | Vm.Isa.Storeb (_, _, rs) ->
            reg_taint.(Vm.Isa.reg_index rs) && eff.e_fault <> None
          | _ -> false
        in
        if bad then trip v ~pc:eff.e_pc "tainted data used as control target"
      in
      (Vm.Cpu.add_pc_hook cpu ~pc:(pc_of sink) sink_check :: source_hooks)
      @ prop_hooks
  in
  { i_vsef = v; i_hooks = hooks; i_rollback_hooks = !rollback_hooks; i_proc = p }

let uninstall (inst : installed) =
  List.iter (Vm.Cpu.remove_hook inst.i_proc.cpu) inst.i_hooks;
  List.iter (Osim.Process.remove_rollback_hook inst.i_proc) inst.i_rollback_hooks

(** Rough instrumentation footprint: how many program locations this VSEF
    hooks (the paper's argument that VSEFs are lightweight). *)
let footprint (inst : installed) = List.length inst.i_hooks
