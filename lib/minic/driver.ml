(** Front door of the compiler: source text in, relocatable unit out. *)

exception Compile_error of string

(* The front-end exceptions, rewrapped with the unit name. *)
let wrap_front ~name f =
  try f () with
  | Lexer.Lex_error (msg, line) ->
    raise (Compile_error (Printf.sprintf "%s: lex error line %d: %s" name line msg))
  | Parser.Parse_error (msg, line) ->
    raise
      (Compile_error (Printf.sprintf "%s: parse error line %d: %s" name line msg))
  | Sema.Error msg ->
    raise (Compile_error (Printf.sprintf "%s: %s" name msg))

(** Compile one MiniC translation unit. [extern] declares functions
    resolved at load time from another unit (see {!Libc.signatures}). *)
let compile ~name ?(extern = []) src : Codegen.compiled =
  wrap_front ~name (fun () ->
      Codegen.gen ~name (Sema.check ~extern_funcs:extern (Parser.parse src)))

let libc_cache : Codegen.compiled option ref = ref None
let libc_lock = Mutex.create ()

(** The compiled C library (memoized — it is the same for every process;
    randomization happens at load time, not compile time). Mutex-guarded:
    consumer-side antibody verification loads processes from shard
    domains, so first use may race. *)
let libc () =
  Mutex.lock libc_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock libc_lock)
    (fun () ->
      match !libc_cache with
      | Some c -> c
      | None ->
        let c = compile ~name:"libc" Libc.source in
        libc_cache := Some c;
        c)

(** Compile an application against the libc interface. *)
let compile_app ~name src = compile ~name ~extern:Libc.signatures src
