(** The shipped developments of [corpus-cold] and the hand-written
    oracle ([expected/corpus.json]) every verdict is checked against. *)

module J = Belr_support.Json

(** The analysis stages of one cold verdict, in the order they run. *)
let stages = [ "check"; "lint"; "total"; "worlds"; "modes" ]

(** A verdict: the exit code, the diagnostic codes each stage emitted
    (a sorted multiset), and the signature's declaration counts. *)
type verdict = {
  v_exit : int;
  v_codes : (string * (string * int) list) list;  (** stage → code → count *)
  v_counts : (string * int) list;
}

type dev = {
  dv_name : string;
  dv_sources : (string * string) list;  (** (file name, text), checked in order *)
  dv_expected : verdict;
}

let sources_of = function
  | "surface" -> [ ("equal.bel", Belr_kits.Surface.full_src) ]
  | "typed_equal" -> [ ("typed_equal.bel", Belr_kits.Typed_equal.full_src) ]
  | "parity" -> [ ("parity.bel", Belr_kits.Parity.src) ]
  | "values" -> [ ("values.bel", Belr_kits.Values.src) ]
  | "quickstart+totality" ->
      [ ("quickstart.blr", Embedded.quickstart);
        ("totality.blr", Embedded.totality) ]
  | "type_uniqueness" -> [ ("type_uniqueness.blr", Embedded.type_uniqueness) ]
  | n -> failwith ("expected/corpus.json names an unknown development " ^ n)

let count_obj (j : J.t) : (string * int) list =
  match j with
  | J.Obj kvs ->
      List.sort compare
        (List.map (fun (k, v) -> (k, Option.value (J.to_int v) ~default:(-1))) kvs)
  | _ -> []

let verdict_of_json (j : J.t) : verdict =
  let field k = Option.value (J.member k j) ~default:(J.Obj []) in
  let codes = field "codes" in
  {
    v_exit = Option.value (Option.bind (J.member "exit_code" j) J.to_int) ~default:(-1);
    v_codes =
      List.map
        (fun s -> (s, count_obj (Option.value (J.member s codes) ~default:(J.Obj []))))
        stages;
    v_counts = count_obj (field "counts");
  }

let developments : dev list Lazy.t =
  lazy
    (match J.parse Embedded.expected_corpus with
    | Error e -> failwith ("expected/corpus.json: " ^ e)
    | Ok j ->
        List.map
          (fun d ->
            let name =
              Option.value (Option.bind (J.member "name" d) J.to_str) ~default:"?"
            in
            { dv_name = name; dv_sources = sources_of name;
              dv_expected = verdict_of_json d })
          (Option.value
             (Option.bind (J.member "developments" j) J.to_list)
             ~default:[]))

let find name = List.find (fun d -> d.dv_name = name) (Lazy.force developments)

(** Codes of a diagnostic list as a sorted multiset. *)
let multiset (codes : string list) : (string * int) list =
  List.fold_left
    (fun acc c ->
      match List.assoc_opt c acc with
      | Some n -> (c, n + 1) :: List.remove_assoc c acc
      | None -> (c, 1) :: acc)
    [] codes
  |> List.sort compare

(** Multiset union. *)
let union (a : (string * int) list) (b : (string * int) list) =
  multiset
    (List.concat_map (fun (c, n) -> List.init n (fun _ -> c)) (a @ b))

let show_codes (m : (string * int) list) =
  if m = [] then "{}"
  else String.concat "," (List.map (fun (c, n) -> Printf.sprintf "%s×%d" c n) m)

(** [None] when [got] matches [want], else a one-line description of
    the first difference. *)
let diff (want : verdict) (got : verdict) : string option =
  if want.v_exit <> got.v_exit then
    Some (Printf.sprintf "exit code %d, expected %d" got.v_exit want.v_exit)
  else
    match
      List.find_opt
        (fun s -> List.assoc_opt s want.v_codes <> List.assoc_opt s got.v_codes)
        stages
    with
    | Some s ->
        let get v = Option.value (List.assoc_opt s v.v_codes) ~default:[] in
        Some
          (Printf.sprintf "%s codes %s, expected %s" s (show_codes (get got))
             (show_codes (get want)))
    | None ->
        if want.v_counts <> [] && want.v_counts <> got.v_counts then
          Some
            (Printf.sprintf "declaration counts %s, expected %s"
               (show_codes got.v_counts) (show_codes want.v_counts))
        else None
