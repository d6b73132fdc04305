(** The FTP proxy cache — the Squid analogue carrying CVE-2002-0068.

    [ftp_build_title_url] sizes its buffer from the {e unescaped} user
    string but then appends the rfc1738-escaped version, which can be up
    to three times longer; [strcat] does the rest (see the paper's
    Figure 2). With a long, escape-heavy user part the append runs off the
    end of the mapped heap and faults inside library [strcat] — after
    having silently corrupted the neighbouring chunk header, which is why
    the core-dump analyzer finds the heap inconsistent. *)

val reqbuf_size : int
(** Size of the request buffer; also the max message size the server
    reads. *)

val compile : unit -> Minic.Codegen.compiled
