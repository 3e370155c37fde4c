(** E11: belr verdict and serve-reply latency, with a per-layer ledger.

    [e11.exe --workload W --seed S --seconds T --trace 0|1] measures one
    workload ({!Workload}) for [T] seconds, split into ten segments.
    Each segment runs in a fresh child process of this executable, one
    at a time, so no segment inherits another's heap: a child sets up,
    runs three untimed warm-up ops, then times ops until its share of
    [T] is spent, running the {!Pace} reference between them, and
    reports one JSON line.  The parent pools the segments and prints
    every end-to-end metric ([--trace 0]), or — after one more segment
    with telemetry on — every per-layer metric ([--trace 1]), by name
    with its unit.  The last line of standard output is one JSON object
    [{correct, attempted, failed, metrics}].

    Without [--workload] every workload runs in turn; [--out FILE] also
    writes the full result (per-segment values included) for
    [compare.exe]; [--smoke] is the short self-check [dune runtest]
    runs.  Workload and metric names, and units, are read from
    [BENCHMARK.json] ([--bench FILE] to give another path); this file
    only says how each metric is computed. *)

module J = Belr_support.Json

(* --- command line ---------------------------------------------------------- *)

let arg name =
  let rec go = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go (List.tl (Array.to_list Sys.argv))

let flag name = Array.exists (( = ) name) Sys.argv

let int_arg name default =
  match arg name with Some v -> int_of_string v | None -> default

let float_arg name default =
  match arg name with Some v -> float_of_string v | None -> default

let segments = 10

let warmup_ops = 3

(** A timed loop runs the pace reference once this often. *)
let pace_every_ns = 40e6

(* --- segment values ------------------------------------------------------------ *)

let num k j = Option.value (Option.bind (J.member k j) J.to_float) ~default:0.

let floats k j =
  Array.of_list
    (List.filter_map J.to_float
       (Option.value (Option.bind (J.member k j) J.to_list) ~default:[]))

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6

(** Scale from measured time to the machine's calm speed, given pace
    samples taken around the measurement. *)
let scale (pace : float array) = Pace.calm_ms *. 1e6 /. Quant.median pace

let setup_s s = num "setup_ns" s *. scale (floats "setup_pace_ns" s) /. 1e9

(** A segment's timed ops, each scaled by the median of the five pace
    samples nearest to it: the machine's speed changes within seconds. *)
let scaled_ops s =
  let pace = floats "pace_ns" s and at = floats "op_pace" s in
  let n = Array.length pace in
  Array.mapi
    (fun i x ->
      let j = min (n - 1) (int_of_float at.(i)) in
      let lo = max 0 (min (j - 2) (n - 5)) in
      x *. scale (Array.sub pace lo (min n 5)))
    (floats "op_ns" s)

let op_ms s = Quant.median (scaled_ops s) /. 1e6

(** Every timed op of the segments, scaled to calm speed. *)
let pooled segs = Array.concat (List.map scaled_ops segs)

let med segs f = Quant.median (Array.of_list (List.map f segs))

(* --- metric tables ----------------------------------------------------------- *)

(** End-to-end metrics of a workload's untraced segments.  Times are
    scaled to calm speed ({!Pace}).  Latency is the median of every timed
    op; set-up and peak heap are the median over segments; allocation is
    averaged over the first {!Workload.fixed_ops} ops of every segment. *)
let end_to_end : (string * (string -> J.t list -> float)) list =
  [
    ("setup_s", fun _ segs -> med segs setup_s);
    ("op_ms_p50", fun _ segs -> Quant.median (pooled segs) /. 1e6);
    ( "alloc_mw_per_op",
      fun w segs ->
        let first s =
          let a = floats "op_words" s in
          Array.sub a 0 (min (Array.length a) (Workload.fixed_ops w))
        in
        let words = Array.concat (List.map first segs) in
        Array.fold_left ( +. ) 0. words /. float_of_int (Array.length words) /. 1e6 );
    ("peak_heap_mb", fun _ segs -> med segs (fun s -> mb_of_words (num "top_heap_words" s)));
  ]

(** Per-layer metrics, read off the traced segment's ledger ([l], summed
    over its [ops] ops); the rows computed from the untraced segments
    ([op_ms_p90], the wall-clock and pace rows, GC, [trace.overhead_frac]
    and [failed_frac]) are put in the ledger by {!layer_values}. *)
let per_layer : (string * (Workload.ledger -> float -> float)) list =
  let g = Workload.get in
  let ms k l ops = g l k /. ops /. 1e6 in
  let per k l ops = g l k /. ops in
  let ratio n d l _ = if g l d = 0. then 0. else g l n /. g l d in
  let rate hits misses l _ =
    let h = g l hits and m = g l misses in
    if h +. m = 0. then 0. else h /. (h +. m)
  in
  let put k = (k, fun l _ -> g l k) in
  let phase p = (p ^ ".ms_per_op", ms ("self." ^ p)) in
  let count c = (c, per ("c." ^ c)) in
  let analyzers = [ "lint"; "total"; "worlds"; "modes" ] in
  (* batch workloads time each Driver call; serve runs the analyzers
     itself, so there their own spans are the timer *)
  let analysis a l ops =
    let t = g l ("t." ^ a) in
    (if t > 0. then t else g l ("total." ^ a)) /. ops /. 1e6
  in
  [ put "op_ms_p90"; put "op_ms_p50_wall"; put "setup_s_wall"; put "pace_ms" ]
  @ List.map phase
      [ "parse"; "elaborate"; "check-lf"; "check-lfr"; "check-comp"; "conservativity" ]
  @ [
      ("decl.per_op", per "count.decl");
      ("driver.check.ms_per_op", ms "t.check");
      count "hsub.substitutions";
      count "hsub.beta_redexes";
      ("hsub.memo_hit_rate", rate "s.memo_hits" "s.memo_misses");
      count "whnf.weak_head_steps";
      ("whnf.memo_hit_rate", rate "s.whnf_memo_hits" "s.whnf_memo_misses");
      ("whnf.forced", per "s.whnf_forced");
      count "unify.problems";
      count "unify.failures";
      count "eta.expansions";
      ("store.interned", per "s.interned");
      ( "store.dedup_ratio",
        fun l _ ->
          let i = g l "s.interned" in
          if i = 0. then 0. else (i +. g l "s.dedup_hits") /. i );
      ("store.equal_phys_rate", rate "s.equal_phys_hits" "s.equal_phys_misses");
    ]
  @ List.map (fun a -> ("analysis." ^ a ^ ".ms_per_op", analysis a)) analyzers
  @ [
      ("analysis.subord.ms_per_op", ms "t.subord");
      ( "analysis.frac",
        fun l ops ->
          let op = g l "t.op" /. ops /. 1e6 in
          if op = 0. then 0.
          else List.fold_left (fun s a -> s +. analysis a l ops) 0. analyzers /. op );
      count "analysis.subord.pairs";
      count "total.composed_graphs";
      count "worlds.checked_pairs";
      count "modes.checked_pairs";
      ("serve.ms_per_op", ms "t.serve");
      ( "serve.self_ms_per_op",
        fun l ops ->
          if g l "t.serve" = 0. then 0.
          else (g l "t.serve" -. g l "spans.outer") /. ops /. 1e6 );
      ("serve.rechecked_per_op", per "serve.rechecked");
      ("serve.reused_per_op", per "serve.reused");
      ("serve.useful_ratio", ratio "serve.predicted" "serve.check_rechecked");
      ("serve.cache_hit_ratio", ratio "serve.hits" "serve.queries");
      ("serve.query_ms_p50", fun l _ -> g l "query.p50_ms");
      put "gc.minor_mw_per_op";
      put "gc.promoted_mw_per_op";
      put "gc.major_collections_per_op";
      put "trace.overhead_frac";
      put "failed_frac";
    ]

(* --- BENCHMARK.json ---------------------------------------------------------- *)

(** Metric names with their units, in [BENCHMARK.json] order. *)
type spec = { sp_e2e : (string * string) list; sp_layer : (string * string) list }

(** Read [BENCHMARK.json]; exit 2 unless it lists exactly the workloads
    and metrics this file computes. *)
let load_spec path : spec =
  let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("e11: " ^ s); exit 2) fmt in
  let j =
    match J.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error e -> fail "%s: %s" path e
    | exception Sys_error e -> fail "%s" e
  in
  let entries k = Option.value (Option.bind (J.member k j) J.to_list) ~default:[] in
  let str k m = Option.bind (J.member k m) J.to_str in
  let metrics k =
    List.filter_map
      (fun m -> match (str "name" m, str "unit" m) with
        | Some n, Some u -> Some (n, u)
        | _ -> None)
      (entries k)
  in
  let same what listed computed =
    let a = List.sort compare listed and b = List.sort compare computed in
    if a <> b then
      fail "%s lists the %s [%s], but e11 has [%s]" path what (String.concat ", " a)
        (String.concat ", " b)
  in
  let spec = { sp_e2e = metrics "end_to_end"; sp_layer = metrics "per_layer" } in
  same "workloads" (List.filter_map (str "name") (entries "workloads")) Workload.names;
  same "end_to_end metrics" (List.map fst spec.sp_e2e) (List.map fst end_to_end);
  same "per_layer metrics" (List.map fst spec.sp_layer) (List.map fst per_layer);
  spec

(* --- one segment (child process) ---------------------------------------------- *)

let json_floats a = J.List (List.map (fun x -> J.Float x) a)

(** Run one segment of at least [min_ops] timed ops and return its
    result line. *)
let run_segment ~workload ~seed ~segment ~seconds ~min_ops ~traced : J.t =
  let w = Workload.make workload ~seed ~segment in
  let mismatches = ref [] in
  let failed = ref 0 in
  let note k = function
    | None -> ()
    | Some e ->
        incr failed;
        if List.length !mismatches < 5 then
          mismatches :=
            Printf.sprintf "%s seed %d op %d: %s" workload seed k e :: !mismatches
  in
  let meter () = { Workload.m_ns = 0.; m_words = 0. } in
  (* set-up is the program's share of Serve.create and the initial check
     (serve workloads) or of the warm-up ops (batch workloads); the pace
     reference runs before, between and after them *)
  let setup = meter () in
  let setup_pace = ref [ Pace.sample () ] in
  note (-1) (w.Workload.w_setup setup);
  setup_pace := Pace.sample () :: !setup_pace;
  let warm = if Workload.is_serve workload then meter () else setup in
  for k = 0 to warmup_ops - 1 do
    note k (w.Workload.w_op warm None).Workload.o_error;
    setup_pace := Pace.sample () :: !setup_pace
  done;
  let ledger = if traced then Some (Hashtbl.create 64) else None in
  if traced then begin
    Belr_support.Telemetry.reset ();
    Belr_support.Telemetry.set_enabled true
  end;
  let op_ns = ref [] and op_words = ref [] and query_ns = ref [] in
  (* pace samples, and for each op how many were taken before it *)
  let pace = ref [] and npace = ref 0 and op_pace = ref [] in
  let top_heap = ref 0 in
  let gc0 = Gc.quick_stat () in
  let deadline = Int64.add (Workload.now_ns ()) (Int64.of_float (seconds *. 1e9)) in
  let last_pace = ref (Workload.now_ns ()) in
  let k = ref warmup_ops in
  while Workload.now_ns () < deadline || !k - warmup_ops < min_ops do
    let m = meter () in
    let o = w.Workload.w_op m ledger in
    note !k o.Workload.o_error;
    op_ns := m.Workload.m_ns :: !op_ns;
    op_pace := float_of_int !npace :: !op_pace;
    if o.Workload.o_query then query_ns := m.Workload.m_ns :: !query_ns;
    op_words := m.Workload.m_words :: !op_words;
    incr k;
    if !k - warmup_ops = Workload.fixed_ops workload then
      top_heap := (Gc.quick_stat ()).Gc.top_heap_words;
    if Workload.since !last_pace >= pace_every_ns then begin
      pace := Pace.sample () :: !pace;
      incr npace;
      last_pace := Workload.now_ns ()
    end
  done;
  let gc1 = Gc.quick_stat () in
  if !pace = [] then pace := [ Pace.sample () ];
  let ops = !k - warmup_ops in
  Option.iter
    (fun l ->
      Workload.add l "t.op" (List.fold_left ( +. ) 0. !op_ns);
      if !query_ns <> [] then
        Workload.add l "query.p50_ms" (Quant.median (Array.of_list !query_ns) /. 1e6))
    ledger;
  J.Obj
    [
      ("ops", J.Int ops);
      ("attempted", J.Int (ops + warmup_ops));
      ("failed", J.Int !failed);
      ("mismatches", J.List (List.rev_map (fun s -> J.String s) !mismatches));
      ("setup_ns", J.Float setup.Workload.m_ns);
      ("setup_pace_ns", json_floats (List.rev !setup_pace));
      ("op_ns", json_floats (List.rev !op_ns));
      ("pace_ns", json_floats (List.rev !pace));
      ("op_pace", json_floats (List.rev !op_pace));
      ("op_words", json_floats (List.rev !op_words));
      ("promoted_words", J.Float (gc1.Gc.promoted_words -. gc0.Gc.promoted_words));
      ( "major_collections",
        J.Int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
      ("top_heap_words", J.Int !top_heap);
      ( "ledger",
        match ledger with
        | None -> J.Null
        | Some l -> J.Obj (Hashtbl.fold (fun k v acc -> (k, J.Float v) :: acc) l []) );
    ]

(* --- the parent: spawn, pool, report ------------------------------------------ *)

let run_child args : J.t =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let last =
    match List.rev (String.split_on_char '\n' (String.trim out)) with
    | l :: _ -> l
    | [] -> ""
  in
  match (status, J.parse last) with
  | Unix.WEXITED 0, Ok j -> j
  | _ ->
      failwith
        (Printf.sprintf "segment %s failed (%s)" (String.concat " " args)
           (match status with
           | Unix.WEXITED c -> "exit " ^ string_of_int c
           | Unix.WSIGNALED s | Unix.WSTOPPED s -> "signal " ^ string_of_int s))

let summarize workload (segs : J.t list) : (string * float) list =
  List.map (fun (k, f) -> (k, f workload segs)) end_to_end

type run = {
  r_workload : string;
  r_segments : J.t list;  (** untraced *)
  r_traced : J.t option;
}

let failed r =
  List.fold_left (fun n s -> n + int_of_float (num "failed" s)) 0
    (r.r_segments @ Option.to_list r.r_traced)

let attempted r =
  List.fold_left (fun n s -> n + int_of_float (num "attempted" s)) 0
    (r.r_segments @ Option.to_list r.r_traced)

let layer_values (r : run) : (string * float) list =
  match r.r_traced with
  | None -> []
  | Some t ->
      let l : Workload.ledger = Hashtbl.create 64 in
      (match J.member "ledger" t with
      | Some (J.Obj kvs) ->
          List.iter (fun (k, v) -> Hashtbl.replace l k (Option.value (J.to_float v) ~default:0.)) kvs
      | _ -> ());
      let segs = r.r_segments in
      let ops = List.fold_left (fun n s -> n +. num "ops" s) 0. segs in
      let sum k = List.fold_left (fun n s -> n +. num k s) 0. segs in
      let put = Hashtbl.replace l in
      put "op_ms_p90" (Quant.quantile (pooled segs) 0.9 /. 1e6);
      put "op_ms_p50_wall"
        (Quant.median (Array.concat (List.map (floats "op_ns") segs)) /. 1e6);
      put "setup_s_wall" (med segs (fun s -> num "setup_ns" s /. 1e9));
      put "pace_ms" (med segs (fun s -> Quant.median (floats "pace_ns" s) /. 1e6));
      put "gc.minor_mw_per_op" (List.assoc "alloc_mw_per_op" (summarize r.r_workload segs));
      put "gc.promoted_mw_per_op" (sum "promoted_words" /. ops /. 1e6);
      put "gc.major_collections_per_op" (sum "major_collections" /. ops);
      put "trace.overhead_frac" ((op_ms t /. (Quant.median (pooled segs) /. 1e6)) -. 1.);
      put "failed_frac" (float_of_int (failed r) /. float_of_int (max 1 (attempted r)));
      let tops = num "ops" t in
      List.map (fun (name, f) -> (name, f l tops)) per_layer

let run_workload ?min_ops ~seed ~seconds ~segments ~trace workload : run =
  let min_ops = Option.value min_ops ~default:(Workload.fixed_ops workload) in
  let child k traced =
    run_child
      [ "--child"; workload; "--seed"; string_of_int seed; "--segment";
        string_of_int k; "--seconds";
        Printf.sprintf "%.17g" (seconds /. float_of_int segments);
        "--min-ops"; string_of_int min_ops; "--traced"; (if traced then "1" else "0") ]
  in
  let segs = List.init segments (fun k -> child k false) in
  { r_workload = workload; r_segments = segs;
    r_traced = (if trace then Some (child segments true) else None) }

(** [values] in the order of [units], each with its unit. *)
let metrics_json units values =
  J.Obj
    (List.map
       (fun (k, unit) ->
         (k, J.Obj [ ("value", J.Float (List.assoc k values)); ("unit", J.String unit) ]))
       units)

let run_json spec (r : run) : J.t =
  let seg_values s =
    J.Obj
      (List.map (fun (k, v) -> (k, J.Float v)) (summarize r.r_workload [ s ])
      @ [ ("ops", J.Float (num "ops" s)); ("failed", J.Float (num "failed" s)) ])
  in
  J.Obj
    ([
       ("workload", J.String r.r_workload);
       ("correct", J.Bool (failed r = 0));
       ("attempted", J.Int (attempted r));
       ("failed", J.Int (failed r));
       ("metrics", metrics_json spec.sp_e2e (summarize r.r_workload r.r_segments));
       ("segments", J.List (List.map seg_values r.r_segments));
     ]
    @
    match r.r_traced with
    | None -> []
    | Some _ -> [ ("per_layer", metrics_json spec.sp_layer (layer_values r)) ])

(** Human-readable report on standard output (before the result line). *)
let report spec (r : run) ~trace =
  let e2e = summarize r.r_workload r.r_segments in
  Printf.printf "== %s: %d op(s), %d failed, %d segment(s)\n" r.r_workload (attempted r)
    (failed r) (List.length r.r_segments);
  List.iter
    (fun s ->
      List.iter (fun m -> Printf.printf "   mismatch: %s\n" m)
        (List.filter_map J.to_str
           (Option.value (Option.bind (J.member "mismatches" s) J.to_list) ~default:[])))
    (r.r_segments @ Option.to_list r.r_traced);
  List.iter
    (fun (k, unit) -> Printf.printf "   %-22s %14.4f %s\n" k (List.assoc k e2e) unit)
    spec.sp_e2e;
  let all = pooled r.r_segments in
  Printf.printf "   (%d timed ops; op_ms_p90 %.4f ms with %d beyond it)\n"
    (Array.length all) (Quant.quantile all 0.9 /. 1e6) (Quant.beyond all 0.9);
  let row name f =
    let a = Array.of_list (List.map f r.r_segments) in
    Printf.printf "   segment %s: %s  spread (max-min)/median %.2f%%\n" name
      (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") a)))
      (100. *. Quant.range_frac a)
  in
  row "op_ms_p50" op_ms;
  row "pace_ms" (fun s -> Quant.median (floats "pace_ns" s) /. 1e6);
  if trace then
    let layers = layer_values r in
    List.iter
      (fun (k, u) -> Printf.printf "   %-34s %14.4f %s\n" k (List.assoc k layers) u)
      spec.sp_layer

(** The contract line: every end-to-end metric, or every per-layer
    metric when traced. *)
let result_line spec (runs : run list) ~trace : J.t =
  let prefix r k = if List.length runs = 1 then k else r.r_workload ^ "." ^ k in
  let metrics =
    List.concat_map
      (fun r ->
        let units, values =
          if trace then (spec.sp_layer, layer_values r)
          else (spec.sp_e2e, summarize r.r_workload r.r_segments)
        in
        match metrics_json units values with
        | J.Obj kvs -> List.map (fun (k, v) -> (prefix r k, v)) kvs
        | _ -> [])
      runs
  in
  let sum f = List.fold_left (fun n r -> n + f r) 0 runs in
  J.Obj
    [
      ("correct", J.Bool (sum failed = 0));
      ("attempted", J.Int (sum attempted));
      ("failed", J.Int (sum failed));
      ("metrics", J.Obj metrics);
    ]

let result_file spec (runs : run list) ~seed ~seconds : J.t =
  J.Obj
    [
      ("schema", J.String "belr-e11/1");
      ("seed", J.Int seed);
      ("seconds", J.Float seconds);
      ("runs", J.List (List.map (run_json spec) runs));
    ]

(* --- smoke ----------------------------------------------------------------------- *)

(** [--smoke]: one short segment (and one traced) per workload; fails
    unless every op answers correctly and the result file carries a
    finite value for every metric [BENCHMARK.json] names. *)
let smoke spec =
  let runs =
    List.map
      (run_workload ~min_ops:1 ~seed:1 ~seconds:0.2 ~segments:1 ~trace:true)
      Workload.names
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let check w what units j =
    List.iter
      (fun (k, _) ->
        match Option.bind (Option.bind (J.member k j) (J.member "value")) J.to_float with
        | Some v when Float.is_finite v -> ()
        | _ -> problem "%s: %s metric %s has no finite value" w what k)
      units
  in
  (match J.parse (J.to_string (result_file spec runs ~seed:1 ~seconds:0.2)) with
  | Error e -> problem "result file does not re-parse: %s" e
  | Ok f ->
      List.iter
        (fun r ->
          let w = Option.value (Option.bind (J.member "workload" r) J.to_str) ~default:"?" in
          if Option.bind (J.member "failed" r) J.to_int <> Some 0 then
            problem "%s: failed ops" w;
          let section k = Option.value (J.member k r) ~default:J.Null in
          check w "end-to-end" spec.sp_e2e (section "metrics");
          check w "per-layer" spec.sp_layer (section "per_layer"))
        (Option.value (Option.bind (J.member "runs" f) J.to_list) ~default:[]));
  match !problems with
  | [] -> print_endline "e11 smoke: ok"
  | ps ->
      List.iter (fun r -> report spec r ~trace:false) runs;
      List.iter prerr_endline (List.rev ps);
      exit 1

(* --- main ----------------------------------------------------------------------- *)

let () =
  let seed = int_arg "--seed" 1 in
  match arg "--child" with
  | Some w ->
      let seconds = float_arg "--seconds" 1. in
      let traced = arg "--traced" = Some "1" in
      let segment = int_arg "--segment" 0 in
      let min_ops = int_arg "--min-ops" 1 in
      print_endline
        (J.to_string ~compact:true
           (run_segment ~workload:w ~seed ~segment ~seconds ~min_ops ~traced))
  | None ->
      let spec = load_spec (Option.value (arg "--bench") ~default:"BENCHMARK.json") in
      if flag "--smoke" then smoke spec
      else begin
        let seconds = float_arg "--seconds" 25. in
        let trace = arg "--trace" = Some "1" in
        let workloads =
          match arg "--workload" with
          | Some w when List.mem w Workload.names -> [ w ]
          | Some w ->
              Printf.eprintf "e11: unknown workload %s (expected one of: %s)\n" w
                (String.concat ", " Workload.names);
              exit 2
          | None -> Workload.names
        in
        let runs =
          List.map
            (fun w ->
              let r = run_workload ~seed ~seconds ~segments ~trace w in
              report spec r ~trace;
              r)
            workloads
        in
        Option.iter
          (fun path -> J.write_file path (result_file spec runs ~seed ~seconds))
          (arg "--out");
        print_endline (J.to_string ~compact:true (result_line spec runs ~trace))
      end
