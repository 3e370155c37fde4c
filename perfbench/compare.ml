(** The E11 regression gate: compare two sets of E11 result files.

    {v
    compare.exe BASE.json CHANGE.json
    compare.exe --base B1.json B2.json … --change C1.json C2.json …
                [--bench BENCHMARK.json]
    v}

    Each file is one [e11.exe --out] result, and each of its runs gives
    one value per end-to-end metric, the same value its result line
    prints.  Runs are paired in order — the run of base file [i] with
    that of change file [i] — so running base and change alternately
    (base, change, base, change, …) pairs runs made side by side, the
    interleaved paired-median discipline of E9.  The base's spread is
    the interquartile range of its run values over their median; it
    needs two base runs at least.  For every (end-to-end metric,
    workload) the verdict is:

    - [regressed]: the change's median is worse than the base's by more
      than the metric's [BENCHMARK.json] bound, and so is the median of
      the paired ratios, and the base's spread is within the bound;
    - [improved]: the change wins nine pairs in ten and its median is
      better by more than the base's spread, which is within the bound;
    - when the base's spread is wider than the bound: [regressed] if the
      median is worse by more than the bound and every change run is
      worse than every base run; if every change run is better than
      every base run, [improved] when the median is better by more than
      the spread, [unchanged] otherwise; [unresolved] in every other
      case.  "Every change run" takes three runs on each side at least;
    - [unresolved]: worse by more than the bound, but not by these
      rules;
    - [unchanged]: otherwise.

    Exits 1 when anything regressed. *)

module J = Belr_support.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("compare: " ^ s); exit 2) fmt

let load path =
  match J.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> fail "%s: %s" path e
  | exception Sys_error e -> fail "%s" e

let lst k j = Option.value (Option.bind (J.member k j) J.to_list) ~default:[]

let str k j = Option.bind (J.member k j) J.to_str

(** Per workload, the run of every file in order, each as metric → value. *)
let runs (files : string list) : (string * (string * float) list list) list =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun path ->
      List.iter
        (fun run ->
          match (str "workload" run, J.member "metrics" run) with
          | Some w, Some (J.Obj kvs) ->
              let values =
                List.filter_map
                  (fun (k, m) ->
                    Option.map (fun v -> (k, v)) (Option.bind (J.member "value" m) J.to_float))
                  kvs
              in
              let old = Option.value (Hashtbl.find_opt tbl w) ~default:[] in
              Hashtbl.replace tbl w (old @ [ values ])
          | _ -> ())
        (lst "runs" (load path)))
    files;
  Hashtbl.fold (fun w s acc -> (w, s) :: acc) tbl [] |> List.sort compare

type bound = { b_name : string; b_lower : bool; b_bound : float }

let bounds (bench : string) : bound list =
  List.filter_map
    (fun m ->
      match (str "name" m, str "better" m, Option.bind (J.member "bound" m) J.to_float) with
      | Some n, Some better, Some b -> Some { b_name = n; b_lower = better = "lower"; b_bound = b }
      | _ -> None)
    (lst "end_to_end" (load bench))

let verdict (b : bound) (base : float array) (change : float array) =
  let k = min (Array.length base) (Array.length change) in
  (* positive = worse, whichever direction the metric improves in *)
  let worse x y = if b.b_lower then (y -. x) /. x else (x -. y) /. x in
  let d = worse (Quant.median base) (Quant.median change) in
  let paired = Quant.median (Array.init k (fun i -> worse base.(i) change.(i))) in
  let spread = if Array.length base >= 2 then Quant.iqr_frac base else infinity in
  let wins = ref 0 in
  for i = 0 to k - 1 do
    if worse base.(i) change.(i) < 0. then incr wins
  done;
  let dominates sign =
    Array.length base >= 3 && Array.length change >= 3
    && Array.for_all
         (fun y -> Array.for_all (fun x -> sign *. worse x y > 0.) base)
         change
  in
  let v =
    if spread > b.b_bound then
      if d > b.b_bound && dominates 1. then "regressed"
      else if dominates (-1.) then if -.d > spread then "improved" else "unchanged"
      else "unresolved"
    else if d > b.b_bound && paired > b.b_bound then "regressed"
    else if d > b.b_bound then "unresolved"
    else if float_of_int !wins >= 0.9 *. float_of_int k && -.d > spread then "improved"
    else "unchanged"
  in
  (v, d, spread, !wins, k)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec split bench base change mode = function
    | "--bench" :: f :: rest -> split f base change mode rest
    | "--base" :: rest -> split bench base change `Base rest
    | "--change" :: rest -> split bench base change `Change rest
    | f :: rest -> (
        match mode with
        | `Base -> split bench (base @ [ f ]) change mode rest
        | `Change -> split bench base (change @ [ f ]) mode rest
        | `Positional ->
            if base = [] then split bench [ f ] change mode rest
            else split bench base (change @ [ f ]) mode rest)
    | [] -> (bench, base, change)
  in
  let bench, base, change = split "BENCHMARK.json" [] [] `Positional args in
  if base = [] || change = [] then
    fail "usage: compare.exe BASE.json CHANGE.json (or --base … --change …)";
  let bs = bounds bench in
  let b_runs = runs base and c_runs = runs change in
  let regressed = ref 0 in
  Printf.printf "%-12s %-16s %12s %12s %8s %8s %6s  %s\n" "workload" "metric" "base" "change"
    "change%" "spread%" "wins" "verdict";
  List.iter
    (fun (w, bruns) ->
      match List.assoc_opt w c_runs with
      | None -> Printf.printf "%-12s (no change run)\n" w
      | Some cruns ->
          List.iter
            (fun b ->
              let col rs = Array.of_list (List.filter_map (List.assoc_opt b.b_name) rs) in
              let bv = col bruns and cv = col cruns in
              if Array.length bv > 0 && Array.length cv > 0 then begin
                let v, d, spread, wins, k = verdict b bv cv in
                if v = "regressed" then incr regressed;
                Printf.printf "%-12s %-16s %12.4f %12.4f %+7.2f%% %7.2f%% %3d/%-2d  %s\n" w
                  b.b_name (Quant.median bv) (Quant.median cv) (100. *. d)
                  (100. *. spread) wins k v
              end)
            bs)
    b_runs;
  if !regressed > 0 then begin
    Printf.printf "%d regression(s)\n" !regressed;
    exit 1
  end
