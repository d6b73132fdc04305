(** Front door of the MiniC compiler: source text in, relocatable unit out. *)

exception Compile_error of string

val compile :
  name:string ->
  ?extern:(string * Ast.ty * Ast.ty list) list ->
  string ->
  Codegen.compiled
(** Compile one translation unit. [extern] declares functions resolved at
    load time from another unit (see {!Libc.signatures}). Raises
    {!Compile_error} with a located message on lex/parse/sema errors. *)

val libc : unit -> Codegen.compiled
(** The compiled C library, memoized — it is the same for every process;
    randomization happens at load time, not compile time. *)

val compile_app : name:string -> string -> Codegen.compiled
(** Compile an application against the libc interface. *)
