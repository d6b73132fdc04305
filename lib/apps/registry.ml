(** The catalogue of evaluated applications and vulnerabilities — the
    contents of the paper's Table 1, bound to the code that implements each
    entry. *)

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

let all =
  [
    {
      r_key = "apache1";
      r_name = "Apache1";
      r_program = "httpd-1.3.27";
      r_description = "web server";
      r_cve = "CVE-2003-0542";
      r_bug_type = "Stack Smashing";
      r_threat = "Local exploitable vulnerability enables unauthorized access";
      r_compile = Httpd.compile_v1;
      r_reqbuf_size = Httpd.reqbuf_size;
      r_reqbuf_symbol = "reqbuf";
    };
    {
      r_key = "apache2";
      r_name = "Apache2";
      r_program = "httpd-1.3.12";
      r_description = "web server";
      r_cve = "CVE-2003-1054";
      r_bug_type = "NULL Pointer";
      r_threat = "Remotely exploitable vulnerability allows disruption of service";
      r_compile = Httpd.compile_v2;
      r_reqbuf_size = Httpd.reqbuf_size;
      r_reqbuf_symbol = "reqbuf";
    };
    {
      r_key = "cvs";
      r_name = "CVS";
      r_program = "cvs-1.11.4";
      r_description = "version control server";
      r_cve = "CVE-2003-0015";
      r_bug_type = "Double Free";
      r_threat =
        "Remotely exploitable vulnerability provides unauthorized access and \
         disruption of service";
      r_compile = Vcsd.compile;
      r_reqbuf_size = Vcsd.reqbuf_size;
      r_reqbuf_symbol = "reqbuf";
    };
    {
      r_key = "squid";
      r_name = "Squid";
      r_program = "squid-2.3";
      r_description = "proxy cache server";
      r_cve = "CVE-2002-0068";
      r_bug_type = "Heap Buffer Overflow";
      r_threat =
        "Remotely exploitable vulnerability provides unauthorized access and \
         disruption of service";
      r_compile = Proxyd.compile;
      r_reqbuf_size = Proxyd.reqbuf_size;
      r_reqbuf_symbol = "reqbuf";
    };
  ]

let find key =
  match List.find_opt (fun e -> e.r_key = key) all with
  | Some e -> e
  | None -> invalid_arg ("Registry.find: unknown app " ^ key)

(** The canonical exploit stream for an application. [system_guess] and
    [cmd_ptr] parameterize the control-hijacking exploit; they are ignored
    by the DoS-only ones. *)
let exploit ?(system_guess = 0) ?(cmd_ptr = 0) key =
  match key with
  | "apache1" -> Exploits.apache1 ~system_guess ~cmd_ptr ()
  | "apache2" -> Exploits.apache2 ()
  | "cvs" -> Exploits.cvs ()
  | "squid" -> Exploits.squid ()
  | _ -> invalid_arg ("Registry.exploit: unknown app " ^ key)

(** Benign workload for an application. *)
let workload ?(seed = 7) key n =
  match key with
  | "apache1" | "apache2" -> Workload.httpd ~seed n
  | "cvs" -> Workload.vcsd ~seed n
  | "squid" -> Workload.proxyd ~seed n
  | _ -> invalid_arg ("Registry.workload: unknown app " ^ key)
