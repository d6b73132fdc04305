(** Semantic analysis: scope resolution, struct layout, pointer-arithmetic
    scaling, and frame allocation. Produces the typed AST consumed by
    {!Codegen}.

    The analysis is deliberately permissive about C's weak typing (ints and
    pointers mix freely through casts) but strict about what the code
    generator cannot express (struct-by-value, unknown identifiers). *)

exception Error of string

(** {1 Typed AST} *)

type var_loc =
  | Loc_frame of int   (** FP-relative byte offset *)
  | Loc_global of string
  | Loc_func of string (** a function used as a value *)

type texpr = { ty : Ast.ty; node : tnode }

and tnode =
  | Tnum of int
  | Tstr of string  (** data symbol of the string literal *)
  | Tload of tlval
  | Taddr of tlval
  | Tfun_addr of string
  | Tun of Ast.unop * texpr
  | Tbin of Ast.binop * texpr * texpr
  | Tassign of tlval * texpr
  | Tcall of string * texpr list
  | Tcall_ptr of texpr * texpr list
  | Tcond of texpr * texpr * texpr

and tlval =
  | Lvar of var_loc * Ast.ty   (** directly addressable scalar *)
  | Lmem of texpr * Ast.ty     (** computed address, pointee type *)

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
  tf_params : (string * Ast.ty) list;
  tf_frame_size : int;  (** bytes reserved below FP for locals *)
  tf_body : tstmt list;
}

(** Global data item: symbol, byte size, optional initial bytes. *)
type tdata = { d_sym : string; d_size : int; d_init : string option }

type tprog = {
  tp_funcs : tfunc list;
  tp_data : tdata list;
}

val is_intrinsic : string -> bool
(** Built-ins lowered directly by {!Codegen} ([_recv], [_send], …) rather
    than called through the normal linkage. *)

val check :
  ?extern_funcs:(string * Ast.ty * Ast.ty list) list ->
  Ast.program ->
  tprog
(** Analyze a parsed program. [extern_funcs] declares functions defined in
    another unit (name, return type, parameter types). Raises {!Error}. *)
