(** Stack-depth bound over a {!Cfg}, computed by a forward worklist
    solver.

    [solve] is parameterized by the lattice ([join]/[bottom]/[eq]) and
    the per-block [transfer] function, and returns the value at each
    block's entry. Boundary blocks (no predecessors, or starting at a
    segment base) additionally join [init] into their entry value.
    Termination needs the usual conditions: monotone transfer over a
    lattice with finite ascending chains (or a clamp, as in
    {!max_stack_depth}). *)

let solve (type v) ~(eq : v -> v -> bool) ~(join : v -> v -> v)
    ~(bottom : v) ~(init : v) ~(transfer : Cfg.block -> v -> v) (cfg : Cfg.t) :
    v array =
  let blocks = Cfg.blocks cfg in
  let n = Array.length blocks in
  let d_in = Array.make n bottom and d_out = Array.make n bottom in
  let on_list = Array.make n false in
  let work = Queue.create () in
  Array.iter
    (fun (b : Cfg.block) ->
      Queue.add b.Cfg.b_id work;
      on_list.(b.Cfg.b_id) <- true)
    blocks;
  while not (Queue.is_empty work) do
    let id = Queue.pop work in
    on_list.(id) <- false;
    let b = blocks.(id) in
    let preds = Cfg.preds b in
    let seed = if preds = [] || Cfg.is_entry cfg b then init else bottom in
    let inflow = List.fold_left (fun acc p -> join acc d_out.(p)) seed preds in
    let outflow = transfer b inflow in
    d_in.(id) <- inflow;
    if not (eq outflow d_out.(id)) then begin
      d_out.(id) <- outflow;
      List.iter
        (fun s ->
          if not on_list.(s) then begin
            Queue.add s work;
            on_list.(s) <- true
          end)
        (Cfg.succs b)
    end
  done;
  d_in

(* --- Max stack depth ----------------------------------------------------- *)

(* Lattice element: bytes of stack in use relative to segment entry;
   [min_int] is the unreachable bottom. Depths are clamped so loops with
   net stack growth still reach a fixpoint ([join] is [max], whose
   ascending chains are otherwise unbounded).

   Calls are treated as stack-balanced: [Call] pushes a return slot that
   the matching [Ret] pops, so on the fallthrough path to the return site
   their net effect is 0. (Without this convention every loop containing
   a call would gain +4 per iteration — the Ret's pop flows to the CFG's
   unknown-target sink, not back to the return site — and the analysis
   would always saturate at [depth_cap].) The callee's own frame still
   counts: its prologue [Sub SP, k] is reached through the call edge at
   the caller's depth. Unbounded recursion therefore still climbs to the
   cap, which is the right answer for it. *)
let depth_cap = 1 lsl 20

let stack_delta (i : Vm.Isa.instr) =
  match i with
  | Push _ -> Vm.Isa.instr_size
  | Pop _ -> -Vm.Isa.instr_size
  | Call _ | CallInd _ | Ret -> 0
  | Bin (Sub, SP, Imm k) -> k
  | Bin (Add, SP, Imm k) -> -k
  | _ -> 0

let clamp d = if d > depth_cap then depth_cap else if d < 0 then 0 else d

(** Upper bound (modulo {!depth_cap}) on bytes of stack any path pushes
    beyond the depth at segment entry. *)
let max_stack_depth (cfg : Cfg.t) : int =
  let transfer (b : Cfg.block) d =
    if d = min_int then min_int
    else
      Array.fold_left
        (fun d (_, instr) -> clamp (d + stack_delta instr))
        d b.Cfg.b_instrs
  in
  let d_in =
    solve ~eq:Int.equal ~join:max ~bottom:min_int ~init:0 ~transfer cfg
  in
  let deepest = ref 0 in
  Array.iter
    (fun (b : Cfg.block) ->
      let d = d_in.(b.Cfg.b_id) in
      if d <> min_int then begin
        let d = ref d in
        Array.iter
          (fun (_, instr) ->
            d := clamp (!d + stack_delta instr);
            if !d > !deepest then deepest := !d)
          b.Cfg.b_instrs
      end)
    (Cfg.blocks cfg);
  !deepest
