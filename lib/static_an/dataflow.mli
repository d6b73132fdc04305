(** Stack-depth bound over a {!Cfg}, computed by a forward worklist
    solver. *)

val max_stack_depth : Cfg.t -> int
(** Upper bound (clamped at [2^20] bytes so growing loops terminate) on
    the stack bytes any path pushes beyond the depth at segment entry.
    Calls are treated as stack-balanced (the return slot [Call] pushes is
    popped by the matching [Ret]), so the bound covers [Push]es and
    explicit [SP] adjustments; callee frames are still counted through
    the call edge, and unbounded recursion saturates at the cap. *)
