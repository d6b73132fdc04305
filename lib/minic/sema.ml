(** Semantic analysis: scope resolution, struct layout, pointer-arithmetic
    scaling, and frame allocation. Produces the typed AST consumed by
    {!Codegen}.

    The analysis is deliberately permissive about C's weak typing (ints and
    pointers mix freely through casts) but strict about what the code
    generator cannot express (struct-by-value, unknown identifiers). *)

open Ast

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Typed AST                                                           *)
(* ------------------------------------------------------------------ *)

type var_loc =
  | Loc_frame of int   (** FP-relative byte offset *)
  | Loc_global of string
  | Loc_func of string (** a function used as a value *)

type texpr = { ty : ty; node : tnode }

and tnode =
  | Tnum of int
  | Tstr of string  (** data symbol of the string literal *)
  | Tload of tlval
  | Taddr of tlval
  | Tfun_addr of string
  | Tun of unop * texpr
  | Tbin of binop * texpr * texpr
  | Tassign of tlval * texpr
  | Tcall of string * texpr list
  | Tcall_ptr of texpr * texpr list
  | Tcond of texpr * texpr * texpr

and tlval =
  | Lvar of var_loc * ty   (** directly addressable scalar *)
  | Lmem of texpr * ty     (** computed address, pointee type *)

type tstmt =
  | TSexpr of texpr
  | TSif of texpr * tstmt list * tstmt list
  | TSwhile of texpr * tstmt list
  | TSfor of tstmt option * texpr option * texpr option * tstmt list
  | TSreturn of texpr option
  | TSbreak
  | TScontinue
  | TSblock of tstmt list

type tfunc = {
  tf_name : string;
  tf_params : (string * ty) list;
  tf_frame_size : int;  (** bytes reserved below FP for locals *)
  tf_body : tstmt list;
}

(** Global data item: symbol, byte size, optional initial bytes. *)
type tdata = { d_sym : string; d_size : int; d_init : string option }

type tprog = {
  tp_funcs : tfunc list;
  tp_data : tdata list;
}

(* ------------------------------------------------------------------ *)
(* Struct layout                                                       *)
(* ------------------------------------------------------------------ *)

type struct_layout = {
  sl_size : int;
  sl_fields : (string * int * ty) list;  (** name, offset, type *)
}

type env = {
  structs : (string, struct_layout) Hashtbl.t;
  funcs : (string, ty * ty list) Hashtbl.t;  (** return type, param types *)
  globals : (string, ty) Hashtbl.t;
  mutable strings : (string * string) list;  (** symbol, content *)
  mutable string_count : int;
}

let rec size_of env = function
  | Tvoid -> err "sizeof(void)"
  | Tint | Tptr _ | Tfunptr -> 4
  | Tchar -> 1
  | Tarray (t, n) -> size_of env t * n
  | Tstruct s -> (
    match Hashtbl.find_opt env.structs s with
    | Some l -> l.sl_size
    | None -> err "unknown struct %s" s)

let align_of env = function
  | Tchar -> 1
  | Tarray (Tchar, _) -> 1
  | _ -> ignore env; 4

let layout_struct env (sd : struct_def) =
  let off = ref 0 in
  let fields =
    List.map
      (fun (ty, name) ->
        let a = align_of env ty in
        off := (!off + a - 1) / a * a;
        let o = !off in
        off := !off + size_of env ty;
        (name, o, ty))
      sd.s_fields
  in
  { sl_size = (!off + 3) / 4 * 4; sl_fields = fields }

let field_of env sname fname =
  match Hashtbl.find_opt env.structs sname with
  | None -> err "unknown struct %s" sname
  | Some l -> (
    match List.find_opt (fun (n, _, _) -> n = fname) l.sl_fields with
    | Some (_, off, ty) -> (off, ty)
    | None -> err "struct %s has no field %s" sname fname)

(* ------------------------------------------------------------------ *)
(* Intrinsics (syscall wrappers recognized by name)                    *)
(* ------------------------------------------------------------------ *)

let intrinsics =
  [
    ("_exit", 1); ("_recv", 2); ("_send", 2); ("_sys_malloc", 1);
    ("_sys_free", 1); ("_log", 1); ("_exec", 1); ("_random", 0); ("_time", 0);
  ]

let is_intrinsic name = List.mem_assoc name intrinsics

(* ------------------------------------------------------------------ *)
(* Expression checking                                                 *)
(* ------------------------------------------------------------------ *)

type scope = {
  mutable vars : (string * (var_loc * ty)) list list;  (** scope stack *)
  mutable frame_bottom : int;  (** most negative FP offset used so far *)
}

let push_scope sc = sc.vars <- [] :: sc.vars
let pop_scope sc = sc.vars <- List.tl sc.vars

let lookup_var sc name =
  let rec go = function
    | [] -> None
    | s :: rest -> (
      match List.assoc_opt name s with Some v -> Some v | None -> go rest)
  in
  go sc.vars

let declare_local env sc ty name =
  let size = (size_of env ty + 3) / 4 * 4 in
  sc.frame_bottom <- sc.frame_bottom - size;
  let loc = Loc_frame sc.frame_bottom in
  (match sc.vars with
  | top :: rest -> sc.vars <- ((name, (loc, ty)) :: top) :: rest
  | [] -> assert false);
  loc

let is_scalar = function
  | Tint | Tchar | Tptr _ | Tfunptr -> true
  | Tvoid | Tarray _ | Tstruct _ -> false

(* The value type an lvalue yields when loaded. *)
let lval_ty = function
  | Lvar (_, t) -> t
  | Lmem (_, t) -> t

let mk ty node = { ty; node }

let int_e n = mk Tint (Tnum n)

let string_symbol env s =
  (* Deduplicate identical literals. *)
  match List.find_opt (fun (_, c) -> c = s) env.strings with
  | Some (sym, _) -> sym
  | None ->
    let sym = Printf.sprintf "__str_%d" env.string_count in
    env.string_count <- env.string_count + 1;
    env.strings <- (sym, s) :: env.strings;
    sym

(* Scale an index expression for pointer arithmetic on element type [t]. *)
let scaled env idx t =
  let s = size_of env t in
  if s = 1 then idx else mk Tint (Tbin (Mul, idx, int_e s))

let rec check_expr env sc (e : expr) : texpr =
  match e with
  | Num n -> int_e n
  | Chr c -> mk Tchar (Tnum (Char.code c))
  | Str s -> mk (Tptr Tchar) (Tstr (string_symbol env s))
  | Var name -> (
    match lookup_var sc name with
    | Some (loc, (Tarray (t, _) as aty)) ->
      (* Arrays decay to a pointer to their first element. *)
      mk (Tptr t) (Taddr (Lvar (loc, aty)))
    | Some (loc, (Tstruct _ as sty)) -> mk (Tptr sty) (Taddr (Lvar (loc, sty)))
    | Some (loc, ty) -> mk ty (Tload (Lvar (loc, ty)))
    | None -> (
      match Hashtbl.find_opt env.globals name with
      | Some (Tarray (t, _) as aty) ->
        mk (Tptr t) (Taddr (Lvar (Loc_global name, aty)))
      | Some ty -> mk ty (Tload (Lvar (Loc_global name, ty)))
      | None ->
        if Hashtbl.mem env.funcs name then mk Tfunptr (Tfun_addr name)
        else err "unknown identifier %s" name))
  | Un (Addr_of, inner) ->
    let lv = check_lval env sc inner in
    mk (Tptr (lval_ty lv)) (Taddr lv)
  | Un (Deref, inner) ->
    let p = check_expr env sc inner in
    let pointee =
      match p.ty with
      | Tptr t -> t
      | Tint -> Tint  (* int used as pointer: common in crashy C *)
      | t -> err "cannot dereference %s" (ty_to_string t)
    in
    if is_scalar pointee then mk pointee (Tload (Lmem (p, pointee)))
    else mk (Tptr pointee) p.node |> fun e -> { e with ty = Tptr pointee }
  | Un (op, inner) ->
    let t = check_expr env sc inner in
    mk Tint (Tun (op, t))
  | Bin ((Add | Sub) as op, e1, e2) -> (
    let t1 = check_expr env sc e1 in
    let t2 = check_expr env sc e2 in
    (* Pointer arithmetic scaling. *)
    match (t1.ty, t2.ty, op) with
    | Tptr t, (Tint | Tchar), _ -> mk t1.ty (Tbin (op, t1, scaled env t2 t))
    | (Tint | Tchar), Tptr t, Add -> mk t2.ty (Tbin (Add, t2, scaled env t1 t))
    | Tptr ta, Tptr _, Sub ->
      let diff = mk Tint (Tbin (Sub, t1, t2)) in
      let s = size_of env ta in
      if s = 1 then diff else mk Tint (Tbin (Div, diff, int_e s))
    | _ -> mk Tint (Tbin (op, t1, t2)))
  | Bin (op, e1, e2) ->
    let t1 = check_expr env sc e1 in
    let t2 = check_expr env sc e2 in
    mk Tint (Tbin (op, t1, t2))
  | Assign (lhs, rhs) ->
    let lv = check_lval env sc lhs in
    let rv = check_expr env sc rhs in
    if not (is_scalar (lval_ty lv)) then err "cannot assign aggregate";
    mk (lval_ty lv) (Tassign (lv, rv))
  | Call (name, args) ->
    let targs = List.map (check_expr env sc) args in
    if is_intrinsic name then begin
      let arity = List.assoc name intrinsics in
      if List.length targs <> arity then
        err "%s expects %d arguments" name arity;
      mk Tint (Tcall (name, targs))
    end
    else begin
      match Hashtbl.find_opt env.funcs name with
      | Some (ret, ptys) ->
        if List.length ptys <> List.length targs then
          err "%s expects %d arguments, got %d" name (List.length ptys)
            (List.length targs);
        mk ret (Tcall (name, targs))
      | None -> (
        (* Calling through a function-pointer variable. *)
        match lookup_var sc name with
        | Some (loc, (Tfunptr | Tptr _ | Tint)) ->
          mk Tint
            (Tcall_ptr (mk Tfunptr (Tload (Lvar (loc, Tfunptr))), targs))
        | _ ->
          if Hashtbl.mem env.globals name then
            mk Tint
              (Tcall_ptr
                 (mk Tfunptr (Tload (Lvar (Loc_global name, Tfunptr))), targs))
          else err "unknown function %s" name)
    end
  | Call_ptr (f, args) ->
    let tf = check_expr env sc f in
    let targs = List.map (check_expr env sc) args in
    mk Tint (Tcall_ptr (tf, targs))
  | Index (base, idx) ->
    let lv = check_index env sc base idx in
    let t = lval_ty lv in
    if is_scalar t then mk t (Tload lv)
    else
      (* Indexing into an array of aggregates yields an address. *)
      let addr = match lv with Lmem (a, _) -> a | Lvar _ -> assert false in
      mk (Tptr t) addr.node |> fun e -> { e with ty = Tptr t }
  | Field (base, fname) ->
    let lv = check_field env sc base fname in
    let t = lval_ty lv in
    if is_scalar t then mk t (Tload lv)
    else err "aggregate field access must be an lvalue context"
  | Arrow (base, fname) ->
    let lv = check_arrow env sc base fname in
    let t = lval_ty lv in
    if is_scalar t then mk t (Tload lv)
    else err "aggregate field access must be an lvalue context"
  | Cast (ty, e) ->
    let t = check_expr env sc e in
    { t with ty }
  | Sizeof ty -> int_e (size_of env ty)
  | Cond (c, a, b) ->
    let tc = check_expr env sc c in
    let ta = check_expr env sc a in
    let tb = check_expr env sc b in
    mk ta.ty (Tcond (tc, ta, tb))

and check_lval env sc (e : expr) : tlval =
  match e with
  | Var name -> (
    match lookup_var sc name with
    | Some (loc, ty) -> Lvar (loc, ty)
    | None -> (
      match Hashtbl.find_opt env.globals name with
      | Some ty -> Lvar (Loc_global name, ty)
      | None -> err "unknown identifier %s" name))
  | Un (Deref, inner) ->
    let p = check_expr env sc inner in
    let pointee =
      match p.ty with Tptr t -> t | Tint -> Tint | t -> err "cannot dereference %s" (ty_to_string t)
    in
    Lmem (p, pointee)
  | Index (base, idx) -> check_index env sc base idx
  | Field (base, fname) -> check_field env sc base fname
  | Arrow (base, fname) -> check_arrow env sc base fname
  | Cast (ty, inner) -> (
    match check_lval env sc inner with
    | Lvar (loc, _) -> Lvar (loc, ty)
    | Lmem (a, _) -> Lmem (a, ty))
  | _ -> err "expression is not an lvalue"

and check_index env sc base idx : tlval =
  let tb = check_expr env sc base in
  let ti = check_expr env sc idx in
  let elem =
    match tb.ty with
    | Tptr t -> t
    | Tint -> Tchar  (* raw int indexed: treat as byte pointer *)
    | t -> err "cannot index %s" (ty_to_string t)
  in
  let addr = mk (Tptr elem) (Tbin (Add, tb, scaled env ti elem)) in
  Lmem (addr, elem)

and check_field env sc base fname : tlval =
  let lv = check_lval env sc base in
  let sname =
    match lval_ty lv with
    | Tstruct s -> s
    | t -> err "field access on non-struct %s" (ty_to_string t)
  in
  let off, fty = field_of env sname fname in
  let base_addr = mk (Tptr (Tstruct sname)) (Taddr lv) in
  let addr = mk (Tptr fty) (Tbin (Add, base_addr, int_e off)) in
  Lmem (addr, fty)

and check_arrow env sc base fname : tlval =
  let tb = check_expr env sc base in
  let sname =
    match tb.ty with
    | Tptr (Tstruct s) | Tstruct s -> s
    | t -> err "arrow on non-struct-pointer %s" (ty_to_string t)
  in
  let off, fty = field_of env sname fname in
  let addr = mk (Tptr fty) (Tbin (Add, tb, int_e off)) in
  Lmem (addr, fty)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec check_stmt env sc (s : stmt) : tstmt =
  match s with
  | Sexpr e -> TSexpr (check_expr env sc e)
  | Sdecl (ty, name, init) ->
    let loc = declare_local env sc ty name in
    (match init with
    | None -> TSblock []
    | Some e ->
      let rv = check_expr env sc e in
      if not (is_scalar ty) then err "cannot initialize aggregate %s" name;
      TSexpr (mk ty (Tassign (Lvar (loc, ty), rv))))
  | Sif (c, t, e) ->
    let tc = check_expr env sc c in
    TSif (tc, check_block env sc t, check_block env sc e)
  | Swhile (c, body) ->
    TSwhile (check_expr env sc c, check_block env sc body)
  | Sfor (init, cond, step, body) ->
    push_scope sc;
    let ti = Option.map (check_stmt env sc) init in
    let tc = Option.map (check_expr env sc) cond in
    let ts = Option.map (check_expr env sc) step in
    let tb = check_block env sc body in
    pop_scope sc;
    TSfor (ti, tc, ts, tb)
  | Sreturn e -> TSreturn (Option.map (check_expr env sc) e)
  | Sbreak -> TSbreak
  | Scontinue -> TScontinue
  | Sblock b -> TSblock (check_block env sc b)

and check_block env sc stmts =
  push_scope sc;
  let r = List.map (check_stmt env sc) stmts in
  pop_scope sc;
  r

(* ------------------------------------------------------------------ *)
(* Program                                                             *)
(* ------------------------------------------------------------------ *)

let check_func env (f : func) : tfunc =
  let sc = { vars = [ [] ]; frame_bottom = 0 } in
  (* Parameters live above the saved FP: FP+8, FP+12, ... *)
  List.iteri
    (fun i (ty, name) ->
      if not (is_scalar ty) then err "%s: aggregate parameter %s" f.f_name name;
      match sc.vars with
      | top :: rest ->
        sc.vars <- ((name, (Loc_frame (8 + (4 * i)), ty)) :: top) :: rest
      | [] -> assert false)
    f.f_params;
  let body = check_block env sc f.f_body in
  {
    tf_name = f.f_name;
    tf_params = List.map (fun (t, n) -> (n, t)) f.f_params;
    tf_frame_size = -sc.frame_bottom;
    tf_body = body;
  }

(** Analyze a whole program. [extern_funcs] declares functions defined in
    another unit (e.g. app code calling libc), as (name, return, params). *)
let check ?(extern_funcs = []) (prog : program) : tprog =
  let env =
    {
      structs = Hashtbl.create 8;
      funcs = Hashtbl.create 32;
      globals = Hashtbl.create 16;
      strings = [];
      string_count = 0;
    }
  in
  List.iter
    (fun (name, ret, ptys) -> Hashtbl.replace env.funcs name (ret, ptys))
    extern_funcs;
  (* First pass: collect structs, function signatures, global types. *)
  List.iter
    (function
      | Gstruct sd -> Hashtbl.replace env.structs sd.s_name (layout_struct env sd)
      | Gfunc f ->
        Hashtbl.replace env.funcs f.f_name (f.f_ret, List.map fst f.f_params)
      | Gvar (ty, name, _) -> Hashtbl.replace env.globals name ty)
    prog;
  (* Second pass: check function bodies, collect data items. *)
  let funcs = ref [] in
  let data = ref [] in
  List.iter
    (function
      | Gstruct _ -> ()
      | Gfunc f -> funcs := check_func env f :: !funcs
      | Gvar (ty, name, init) ->
        let size = (size_of env ty + 3) / 4 * 4 in
        let init_bytes =
          let word n =
            let b = Bytes.create 4 in
            Bytes.set_int32_le b 0 (Int32.of_int n);
            Some (Bytes.to_string b)
          in
          match init with
          | None -> None
          | Some (Num n) -> word n
          | Some (Un (Neg, Num n)) -> word (-n)
          | Some (Chr c) -> word (Char.code c)
          | Some _ -> err "global %s: only integer initializers supported" name
        in
        data := { d_sym = name; d_size = size; d_init = init_bytes } :: !data)
    prog;
  let string_data =
    List.rev_map
      (fun (sym, content) ->
        { d_sym = sym; d_size = String.length content + 1;
          d_init = Some (content ^ "\000") })
      env.strings
  in
  { tp_funcs = List.rev !funcs; tp_data = List.rev !data @ string_data }
