(** The catalogue of evaluated applications and vulnerabilities — the
    contents of the paper's Table 1, bound to the code that implements
    each entry. *)

type entry = {
  r_key : string;     (** short key: apache1, apache2, cvs, squid *)
  r_name : string;    (** display name used in the paper *)
  r_program : string;
  r_description : string;
  r_cve : string;
  r_bug_type : string;
  r_threat : string;
  r_compile : unit -> Minic.Codegen.compiled;
  r_reqbuf_size : int;
  r_reqbuf_symbol : string;  (** global receive buffer (worm payload home) *)
}

val all : entry list

val find : string -> entry
(** Look an application up by key; raises [Invalid_argument] on unknown
    keys. *)

val exploit : ?system_guess:int -> ?cmd_ptr:int -> string -> Exploits.t
(** The canonical exploit stream for an application. [system_guess] and
    [cmd_ptr] parameterize the control-hijacking exploit; they are
    ignored by the DoS-only ones. *)

val workload : ?seed:int -> string -> int -> string list
(** Benign workload for an application. *)
