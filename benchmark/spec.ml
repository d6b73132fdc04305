(* The benchmark's declaration, read from BENCHMARK.json: the workloads,
   the end-to-end metrics with their regression bounds, and the
   per-layer metrics. The harness checks what it emits against this file
   and [compare] takes its bounds from it, so the two cannot drift. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** share of the baseline median; end-to-end only *)
}

type t = {
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let ( let* ) = Result.bind

let field key j =
  match Obs.Json.member key j with
  | Some v -> Ok v
  | None -> Error ("BENCHMARK.json: missing key " ^ key)

let str key j =
  let* v = field key j in
  match v with
  | Obs.Json.Str s -> Ok s
  | _ -> Error ("BENCHMARK.json: " ^ key ^ " is not a string")

let num key j =
  let* v = field key j in
  match v with
  | Obs.Json.Float f -> Ok f
  | Obs.Json.Int i -> Ok (float_of_int i)
  | _ -> Error ("BENCHMARK.json: " ^ key ^ " is not a number")

let list key j f =
  let* v = field key j in
  match Obs.Json.to_list v with
  | None -> Error ("BENCHMARK.json: " ^ key ^ " is not a list")
  | Some l ->
    List.fold_right
      (fun x acc ->
        let* acc = acc in
        let* y = f x in
        Ok (y :: acc))
      l (Ok [])

let metric ~bounded j =
  let* name = str "name" j in
  let* unit_ = str "unit" j in
  let* b = str "better" j in
  let* better =
    match b with
    | "lower" -> Ok Lower
    | "higher" -> Ok Higher
    | _ -> Error ("BENCHMARK.json: bad direction for " ^ name)
  in
  let* bound =
    if bounded then Result.map Option.some (num "bound" j) else Ok None
  in
  Ok { name; unit_; better; bound }

let of_json j =
  let* workloads = list "workloads" j (str "name") in
  let* end_to_end = list "end_to_end" j (metric ~bounded:true) in
  let* per_layer = list "per_layer" j (metric ~bounded:false) in
  Ok { workloads; end_to_end; per_layer }

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> (
    match Obs.Json.parse s with
    | Error e -> Error (path ^ ": " ^ e)
    | Ok j -> of_json j)

let find t name =
  List.find_opt (fun m -> m.name = name) (t.end_to_end @ t.per_layer)
