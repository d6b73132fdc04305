(** The web server, in two builds mirroring the paper's two Apache targets.

    - "Apache1" (analogue of CVE-2003-0542): the alias matcher copies the
      request URI into a 64-byte stack buffer with no bounds check. A long
      URI smashes the caller's saved frame pointer and return address — a
      classic stack-smashing vulnerability. The overflowing store is in
      [lmatcher]; the corrupted return is taken in [try_alias_list].
    - "Apache2" (analogue of CVE-2003-1054): Referer-header bookkeeping
      takes the host to start after "://"; when the header has no scheme
      the host pointer stays NULL and [is_ip] dereferences it — a remotely
      triggerable denial of service. *)

val reqbuf_size : int
(** Size of the request buffer; also the max message size the server
    reads. *)

val compile_v1 : unit -> Minic.Codegen.compiled
(** The stack-smashing build ("Apache1"). *)

val compile_v2 : unit -> Minic.Codegen.compiled
(** The NULL-dereference build ("Apache2"). *)
