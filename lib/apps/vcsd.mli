(** The version-control server — the CVS analogue carrying CVE-2003-0015.

    A "Directory" request with an empty argument makes [dirswitch] free
    the current directory string twice. The second [free] trips libc's
    heap consistency check and aborts inside the library — the paper's
    "crash at 0x4f0eaaa0 (lib. free); heap inconsistent", attributed by
    memory-bug detection to the double-freeing call in [dirswitch]. *)

val reqbuf_size : int
(** Size of the request buffer; also the max message size the server
    reads. *)

val compile : unit -> Minic.Codegen.compiled
