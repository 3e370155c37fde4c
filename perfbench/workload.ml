(** The four workloads: what one op is, what it must answer, and the
    per-layer ledger it feeds when the segment is traced.

    - [corpus-cold]: every shipped development, each in a fresh
      [Session] with all four analyzers, in seed-shuffled order;
    - [sig-scale]: the seeded synthetic signature ({!Synth}), checked
      cold with all four analyzers;
    - [serve-edit]: a warm [belr serve] session holding the synthetic
      signature and the §2 development, driven by a closed-loop client
      sending [check] edits;
    - [serve-mixed]: the same session shape, with [lint] / [total] /
      [modes] queries beside the edits.

    An op's cost is the program's share only: time and minor words are
    metered around the calls into belr, never around the client's own
    bookkeeping (generating text, parsing replies, checking verdicts). *)

open Belr_support
module J = Json
module Session = Belr_lf.Session
module Driver = Belr_parser.Driver
module Serve = Belr_parser.Serve

let names = [ "corpus-cold"; "sig-scale"; "serve-edit"; "serve-mixed" ]

let is_serve w = w = "serve-edit" || w = "serve-mixed"

(* --- metering ------------------------------------------------------------- *)

let now_ns = Limits.now_ns

let since t0 = Int64.to_float (Int64.sub (now_ns ()) t0)

(** The program's share of the current op. *)
type meter = { mutable m_ns : float; mutable m_words : float }

let metered (m : meter) (f : unit -> 'a) : 'a * float =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = f () in
  let dt = since t0 in
  m.m_ns <- m.m_ns +. dt;
  m.m_words <- m.m_words +. (Gc.minor_words () -. w0);
  (r, dt)

(** Raw per-layer sums of a traced segment, keyed by layer; divided by
    the op count when the metrics are rendered. *)
type ledger = (string, float) Hashtbl.t

let add (l : ledger) k v =
  Hashtbl.replace l k (v +. Option.value (Hashtbl.find_opt l k) ~default:0.)

let get (l : ledger) k = Option.value (Hashtbl.find_opt l k) ~default:0.

(** Self time per span name, and the total of the outermost spans, over
    the spans recorded since [mark] (completion order: children before
    their parent). *)
let add_spans (l : ledger) (mark : int) : unit =
  let evs, _ = Telemetry.events_since mark in
  let child = Array.make 256 0L in
  List.iter
    (fun (ev : Telemetry.event) ->
      let d = min ev.Telemetry.ev_depth 254 in
      let self = Int64.sub ev.Telemetry.ev_dur_ns child.(d + 1) in
      child.(d + 1) <- 0L;
      child.(d) <- Int64.add child.(d) ev.Telemetry.ev_dur_ns;
      let name = ev.Telemetry.ev_name in
      add l ("self." ^ name) (Int64.to_float self);
      add l ("total." ^ name) (Int64.to_float ev.Telemetry.ev_dur_ns);
      if name = "decl" then add l "count.decl" 1.;
      if d = 0 then add l "spans.outer" (Int64.to_float ev.Telemetry.ev_dur_ns))
    evs

let counters () = Telemetry.counter_totals ()

let add_counters (l : ledger) before =
  List.iter
    (fun (name, v) ->
      let v0 = Option.value (List.assoc_opt name before) ~default:0 in
      add l ("c." ^ name) (float_of_int (v - v0)))
    (counters ())

(** The integer fields of the telemetry "store" section: the store,
    substitution-memo and whnf-memo statistics of the installed session
    (and the process-wide equality fast-path counts). *)
let store_fields (ses : Session.t) : (string * int) list =
  Session.with_ ses (fun () ->
      match List.assoc_opt "store" (Telemetry.section_reports ()) with
      | None -> []
      | Some fields ->
          List.filter_map
            (fun (k, v) -> match v with J.Int i -> Some (k, i) | _ -> None)
            fields)

let add_store (l : ledger) before after =
  List.iter
    (fun (k, v) ->
      let v0 = Option.value (List.assoc_opt k before) ~default:0 in
      add l ("s." ^ k) (float_of_int (v - v0)))
    after

(* --- one op ---------------------------------------------------------------- *)

type outcome = {
  o_error : string option;  (** why the answer was wrong, if it was *)
  o_query : bool;  (** a serve-mixed read (lint/total/modes) *)
}

type t = {
  w_setup : meter -> string option;
      (** serve workloads: [Serve.create] and the initial cold check *)
  w_op : meter -> ledger option -> outcome;
}

(** Allocation is averaged over, and peak heap read after, this many
    timed ops, and every segment runs at least that many: the same work
    in every run, however fast the ops go (a warm serve session keeps
    growing).  For serve-edit that is two whole cycles of 40 edits; for
    serve-mixed, the first 20 edits of the cycle and the queries between
    them. *)
let fixed_ops = function "serve-edit" -> 80 | "serve-mixed" -> 100 | _ -> 10

(* --- batch workloads --------------------------------------------------------- *)

let counts_of (sg : Belr_lf.Sign.t) : (string * int) list =
  let s = Belr_lf.Sign.summary sg in
  List.sort compare
    [
      ("typs", s.Belr_lf.Sign.n_typs);
      ("srts", s.Belr_lf.Sign.n_srts);
      ("consts", s.Belr_lf.Sign.n_consts);
      ("schemas", s.Belr_lf.Sign.n_schemas);
      ("sschemas", s.Belr_lf.Sign.n_sschemas);
      ("recs", s.Belr_lf.Sign.n_recs);
    ]

(** One cold verdict: a fresh session, check, then the four analyzers
    on the same sink. *)
let cold_verdict (m : meter) (ledger : ledger option) (d : Corpus.dev) :
    Corpus.verdict =
  let ses, _ = metered m Session.create in
  let sink = Diagnostics.sink () in
  let store0 = Option.map (fun _ -> store_fields ses) ledger in
  let mark = Telemetry.events_recorded () in
  let seen = ref 0 in
  let stage name f =
    let (), dt = metered m f in
    Option.iter (fun l -> add l ("t." ^ name) dt) ledger;
    let all = Diagnostics.all sink in
    let fresh = List.filteri (fun i _ -> i >= !seen) all in
    seen := List.length all;
    (name, Corpus.multiset (List.map (fun x -> x.Diagnostics.d_code) fresh))
  in
  (* the stages run in this order: a list literal would evaluate its
     elements right to left *)
  let check =
    stage "check" (fun () ->
        ignore (Driver.check_sources_in ses sink d.Corpus.dv_sources))
  in
  let lint = stage "lint" (fun () -> ignore (Driver.lint_in ses sink)) in
  let total = stage "total" (fun () -> ignore (Driver.total_in ses sink)) in
  let worlds = stage "worlds" (fun () -> ignore (Driver.worlds_in ses sink)) in
  let modes = stage "modes" (fun () -> ignore (Driver.modes_in ses sink)) in
  let codes = [ check; lint; total; worlds; modes ] in
  Option.iter
    (fun l ->
      add_spans l mark;
      let t0 = now_ns () in
      Session.with_ ses (fun () ->
          ignore (Belr_analysis.Subord.analyze (Session.sign ses)));
      add l "t.subord" (since t0);
      add_store l (Option.get store0) (store_fields ses))
    ledger;
  {
    Corpus.v_exit = Diagnostics.exit_code sink;
    v_codes = codes;
    v_counts = counts_of (Session.sign ses);
  }

let batch (devs : Corpus.dev list) : t =
  {
    w_setup = (fun _ -> None);
    w_op =
      (fun m ledger ->
        let before = counters () in
        (* every development runs even after a mismatch, so a wrong
           answer does not change the op's cost *)
        let errs =
          List.map
            (fun (d : Corpus.dev) ->
              Option.map
                (fun e -> d.Corpus.dv_name ^ ": " ^ e)
                (Corpus.diff d.Corpus.dv_expected (cold_verdict m ledger d)))
            devs
        in
        let err = List.find_map Fun.id errs in
        Option.iter (fun l -> add_counters l before) ledger;
        { o_error = err; o_query = false });
  }

let shuffle = Synth.shuffle

(** The developments in a seeded order, another one in each segment: the
    peak heap depends on the order, and the run reports the median over
    its segments. *)
let corpus_devs seed segment =
  let a = Array.of_list (Lazy.force Corpus.developments) in
  shuffle (Random.State.make [| 0xc0; seed; segment |]) a;
  Array.to_list a

(** The synthetic signature as a one-file development, with its
    predicted verdict. *)
let synth_dev seed : Corpus.dev =
  let sg = Synth.generate seed in
  let st = Synth.base_state () in
  {
    Corpus.dv_name = Printf.sprintf "sig-scale(seed %d)" seed;
    dv_sources = [ ("synthetic.bel", Synth.text_of (Synth.decls sg st)) ];
    dv_expected =
      {
        Corpus.v_exit = 0;
        v_codes =
          List.map
            (fun s -> (s, if s = "lint" then Synth.lint_codes sg st else []))
            Corpus.stages;
        v_counts = Synth.counts sg;
      };
  }

(* --- serve workloads ------------------------------------------------------------ *)

(** [src] with [ctor] added after the constructor [last], which ends its
    declaration. *)
let insert_ctor (src : string) (last : string) (ctor : string) : string =
  let anchor = last ^ ";" in
  let n = String.length anchor in
  let rec find i =
    if i + n > String.length src then
      failwith ("the §2 source no longer contains " ^ anchor)
    else if String.sub src i n = anchor then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub src 0 (i + n - 1)
  ^ "\n" ^ ctor ^ ";"
  ^ String.sub src (i + n) (String.length src - i - n)

(** The §2 development under [st]: [tm] and [deq] may carry an extra
    constructor. *)
let sec2_text (st : Synth.state) : string =
  let s = Belr_kits.Surface.full_src in
  let s =
    if st.Synth.st_tm then insert_ctor s "| app : tm -> tm -> tm" "| tx : tm" else s
  in
  if st.Synth.st_deq then
    insert_ctor s "| e-trans : deq M1 M2 -> deq M2 M3 -> deq M1 M3"
      "| e-extra : {M : tm} deq M M"
  else s

(** Declarations of the §2 development with the names each mentions
    (hand-read from [Surface.full_src]); only the invalidation closure
    of an edit to [tm] or [deq] is computed from it. *)
let sec2_decls : Synth.decl list =
  let d names refs = { Synth.d_names = names; d_refs = refs; d_text = "" } in
  let ctors = [ "tm"; "aeq"; "lam"; "app"; "e-lam"; "e-app"; "xaG"; "xeW" ] in
  [
    d [ "tm"; "lam"; "app" ] [ "tm" ];
    d [ "deq"; "e-lam"; "e-app"; "e-refl"; "e-sym"; "e-trans" ] [ "tm"; "deq" ];
    d [ "aeq" ] [ "deq"; "tm"; "e-lam"; "e-app" ];
    d [ "xdG"; "xdG^" ] [ "tm"; "deq" ];
    d [ "xaG"; "xaG^" ] [ "xdG"; "tm"; "aeq" ];
    d [ "xbW" ] [ "tm"; "deq" ];
    d [ "tm%worlds"; "deq%worlds" ] [ "xbW"; "tm"; "deq" ];
    d [ "aeq%mode" ] [ "aeq" ];
    d [ "aeq-refl" ] ctors;
    d [ "aeq-sym" ] ctors;
    d [ "aeq-trans" ] ctors;
    d [ "ceq" ] ([ "deq"; "e-refl"; "e-sym"; "e-trans"; "aeq-refl"; "aeq-sym"; "aeq-trans" ] @ ctors);
  ]

(** The edit stream of both serve workloads.  It repeats a cycle of 40
    edits: every 10th plants an ill-formed declaration (E0201) before a
    family, and the next edit removes it; the other 36 add an extra
    constructor to a target and then remove it again, 18 targets per
    cycle, two of them the §2 families [tm] and [deq].  The synthetic
    targets and the planted places follow golden-ratio sequences from
    seeded starts, and the ten segments of a run start them a tenth
    apart, so any stretch of the stream covers the signature evenly.
    Every other synthetic target, and every other planted place, is the
    mirror image [n - 1 - i] of the one before: an edit to family [i]
    invalidates about [n - i] declarations, so each mirrored pair
    re-checks about [n] in all, and the mix of small and large
    invalidation closures in 20 consecutive edits from the start of a
    cycle does not depend on the seed. *)
type editor = {
  ed_sg : Synth.t;
  ed_st : Synth.state;
  mutable ed_target : float;  (** in [0, 1) *)
  mutable ed_plant : float;  (** in [0, 1) *)
  mutable ed_last_target : int;
  mutable ed_last_plant : int;
  mutable ed_edits : int;
  mutable ed_pending : int option;  (** target whose extra is to be removed *)
}

let editor seed segment =
  let rng = Random.State.make [| 0xed; seed |] in
  let shift x = Float.rem (x +. (float_of_int segment /. 10.)) 1. in
  let target = shift (Random.State.float rng 1.) in
  let plant = shift (Random.State.float rng 1.) in
  { ed_sg = Synth.generate seed; ed_st = Synth.base_state ();
    ed_target = target; ed_plant = plant; ed_last_target = 0; ed_last_plant = 0;
    ed_edits = 0; ed_pending = None }

(** Step a golden-ratio sequence and scale it to [0, n). *)
let golden (x : float) (n : int) : float * int =
  let x = Float.rem (x +. 0.6180339887498949) 1. in
  (x, min (n - 1) (int_of_float (x *. float_of_int n)))

(** Apply the next edit; returns its predicted invalidation closure. *)
let next_edit (ed : editor) : int =
  let k = ed.ed_edits mod 40 in
  ed.ed_edits <- ed.ed_edits + 1;
  let st = ed.ed_st in
  let mirror i = Synth.n_fams - 1 - i in
  if k mod 10 = 9 then begin
    let at =
      if k mod 20 = 19 then mirror ed.ed_last_plant
      else begin
        let x, at = golden ed.ed_plant Synth.n_fams in
        ed.ed_plant <- x;
        ed.ed_last_plant <- at;
        at
      end
    in
    st.Synth.st_bad <- Some at;
    1
  end
  else begin
    st.Synth.st_bad <- None;
    let t =
      match ed.ed_pending with
      | Some t ->
          ed.ed_pending <- None;
          t
      | None ->
          (* pairs 0–7 and 9–16 are synthetic, mirrored in twos *)
          let pair = (k - (k / 10)) / 2 in
          let t =
            if pair = 8 then Synth.n_fams
            else if pair = 17 then Synth.n_fams + 1
            else if (if pair < 8 then pair else pair - 9) mod 2 = 1 then
              mirror ed.ed_last_target
            else begin
              let x, t = golden ed.ed_target Synth.n_fams in
              ed.ed_target <- x;
              ed.ed_last_target <- t;
              t
            end
          in
          ed.ed_pending <- Some t;
          t
    in
    if t < Synth.n_fams then begin
      st.Synth.st_extra.(t) <- not st.Synth.st_extra.(t);
      Synth.closure (Synth.decls ed.ed_sg st) [ Synth.fam_name t ]
    end
    else if t = Synth.n_fams then begin
      st.Synth.st_tm <- not st.Synth.st_tm;
      Synth.closure sec2_decls [ "tm" ]
    end
    else begin
      st.Synth.st_deq <- not st.Synth.st_deq;
      Synth.closure sec2_decls [ "deq" ]
    end
  end

let full_text (ed : editor) : string =
  Synth.text_of (Synth.decls ed.ed_sg ed.ed_st) ^ "\n" ^ sec2_text ed.ed_st

(** One request of the closed-loop client, with the answer it must get. *)
type request = {
  rq_line : string;
  rq_method : string;
  rq_exit : int;
  rq_codes : (string * int) list;
  rq_predicted : int;  (** check: the predicted invalidation closure *)
}

let request_line id meth source =
  J.to_string ~compact:true
    (J.Obj
       ([ ("id", J.Int id); ("method", J.String meth);
          ("session", J.String "bench") ]
       @ match source with Some s -> [ ("source", J.String s) ] | None -> []))

let check_request (ed : editor) id predicted : request =
  let bad = ed.ed_st.Synth.st_bad <> None in
  {
    rq_line = request_line id "check" (Some (full_text ed));
    rq_method = "check";
    rq_exit = (if bad then 1 else 0);
    rq_codes = (if bad then [ ("E0201", 1) ] else []);
    rq_predicted = predicted;
  }

(** A query's findings: the synthetic part's predicted lint findings
    plus the §2 development's oracle.  An extra constructor of [tm] or
    [deq] is a case that [aeq-refl] (which covers [tm]) or [ceq] (which
    covers [deq]) does not cover: one more W0711 each. *)
let query_request (ed : editor) id meth : request =
  let sec2 = (Corpus.find "surface").Corpus.dv_expected.Corpus.v_codes in
  let sec2 s = Option.value (List.assoc_opt s sec2) ~default:[] in
  let st = ed.ed_st in
  let uncovered =
    List.filter Fun.id [ st.Synth.st_tm; st.Synth.st_deq ]
    |> List.map (fun _ -> "W0711")
    |> Corpus.multiset
  in
  let codes =
    match meth with
    | "lint" -> Corpus.union (Synth.lint_codes ed.ed_sg st) (sec2 "lint")
    | "total" -> Corpus.union uncovered (sec2 "total")
    | m -> sec2 m
  in
  { rq_line = request_line id meth None; rq_method = meth; rq_exit = 0;
    rq_codes = codes; rq_predicted = 0 }

let analyses = [ "lint"; "total"; "modes" ]

(** The request stream of a serve workload.  [serve-edit] sends only
    [check] edits.  [serve-mixed] sends 20% edits and 80% queries, in
    bursts of five requests: an edit, then [lint], [total] and [modes],
    then one of them again.  The repeated analysis takes turns, so a
    round of three bursts asks for each analysis four times. *)
let stream (w : string) (ed : editor) : unit -> request =
  let id = ref 0 in
  let round =
    Array.of_list
      (List.concat_map
         (fun again -> `Edit :: List.map (fun q -> `Query q) (analyses @ [ again ]))
         analyses)
  in
  fun () ->
    incr id;
    if w = "serve-edit" then check_request ed !id (next_edit ed)
    else
      match round.((!id - 1) mod Array.length round) with
      | `Edit -> check_request ed !id (next_edit ed)
      | `Query q -> query_request ed !id q

(** Read a reply: status, exit code, diagnostic codes, and the
    incremental engine's re-check accounting. *)
let read_reply (reply : string) =
  match J.parse reply with
  | Error e -> Error ("unparsable reply: " ^ e)
  | Ok j ->
      let str k = Option.bind (J.member k j) J.to_str in
      let tel k =
        Option.value
          (Option.bind (J.member "telemetry" j) (fun t -> Option.bind (J.member k t) J.to_int))
          ~default:0
      in
      let codes =
        List.filter_map
          (fun d -> Option.bind (J.member "code" d) J.to_str)
          (Option.value (Option.bind (J.member "diagnostics" j) J.to_list) ~default:[])
      in
      Ok
        ( Option.value (str "status") ~default:"?",
          Option.value (Option.bind (J.member "exit_code" j) J.to_int) ~default:(-1),
          Corpus.multiset codes,
          tel "rechecked",
          tel "reused" )

let verify (rq : request) reply =
  match read_reply reply with
  | Error e -> (Some e, 0, 0)
  | Ok (status, exit, codes, rechecked, reused) ->
      let err =
        if status <> "ok" then Some (rq.rq_method ^ ": status " ^ status)
        else if exit <> rq.rq_exit then
          Some (Printf.sprintf "%s: exit code %d, expected %d" rq.rq_method exit rq.rq_exit)
        else if codes <> rq.rq_codes then
          Some
            (Printf.sprintf "%s: codes %s, expected %s" rq.rq_method
               (Corpus.show_codes codes) (Corpus.show_codes rq.rq_codes))
        else None
      in
      (err, rechecked, reused)

let serve (w : string) (seed : int) (segment : int) : t =
  let ed = editor seed segment in
  let next = stream w ed in
  let server = ref None in
  let handle m line =
    match !server with
    | None -> failwith "serve workload used before set-up"
    | Some s -> metered m (fun () -> Serve.handle_line s line)
  in
  let w_setup m =
    let (s, _) = metered m (fun () -> Serve.create ()) in
    server := Some s;
    let rq = check_request ed 0 0 in
    match handle m rq.rq_line with
    | Some reply, _ ->
        let err, _, _ = verify rq reply in
        err
    | None, _ -> Some "no reply to the initial check"
  in
  let w_op m ledger =
    let rq = next () in
    let core () =
      (Serve.find_session (Option.get !server) "bench").Serve.ss_core
    in
    let before = Option.map (fun _ -> (counters (), store_fields (core ()))) ledger in
    let mark = Telemetry.events_recorded () in
    let reply, dt = handle m rq.rq_line in
    let err, rechecked, reused =
      match reply with
      | Some r -> verify rq r
      | None -> (Some "no reply", 0, 0)
    in
    Option.iter
      (fun l ->
        let c0, s0 = Option.get before in
        add_counters l c0;
        add_store l s0 (store_fields (core ()));
        add_spans l mark;
        add l "t.serve" dt;
        add l "serve.rechecked" (float_of_int rechecked);
        add l "serve.reused" (float_of_int reused);
        if rq.rq_method = "check" then begin
          add l "serve.checks" 1.;
          add l "serve.check_rechecked" (float_of_int rechecked);
          add l "serve.predicted" (float_of_int rq.rq_predicted)
        end
        else begin
          add l "serve.queries" 1.;
          if rechecked = 0 then add l "serve.hits" 1.
        end)
      ledger;
    { o_error = err; o_query = rq.rq_method <> "check" }
  in
  { w_setup; w_op }

let make (w : string) ~(seed : int) ~(segment : int) : t =
  match w with
  | "corpus-cold" -> batch (corpus_devs seed segment)
  | "sig-scale" -> batch [ synth_dev seed ]
  | "serve-edit" | "serve-mixed" -> serve w seed segment
  | _ -> invalid_arg ("unknown workload " ^ w)
