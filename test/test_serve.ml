(** The [belr serve] engine: belr-serve/1 replies, incremental
    per-declaration re-checking (telemetry span counts as the oracle),
    crash-only fault handling, deadlines, and protocol resync. *)

open Belr_support
open Belr_parser
module J = Json

let test name f = Alcotest.test_case name `Quick f

(* --- request/reply plumbing -------------------------------------------- *)

let request ?(session = "s") ?deadline_ms ?step_budget ?(meth = "check")
    ?source ?file id =
  let fields =
    [ ("id", Some (J.Int id)); ("method", Some (J.String meth));
      ("session", Some (J.String session));
      ("deadline_ms", Option.map (fun n -> J.Int n) deadline_ms);
      ("step_budget", Option.map (fun n -> J.Int n) step_budget);
      ("source", Option.map (fun s -> J.String s) source);
      ("file", Option.map (fun f -> J.String f) file) ]
  in
  J.to_string ~compact:true
    (J.Obj
       (List.filter_map
          (fun (k, v) -> Option.map (fun v -> (k, v)) v)
          fields))

(** Send one line, decode the mandatory reply. *)
let round t line =
  match Serve.handle_line t line with
  | None -> Alcotest.fail "no reply to a non-blank line"
  | Some reply -> (
      match J.parse reply with
      | Error msg -> Alcotest.failf "unparsable reply: %s" msg
      | Ok j -> j)

let str_field k j =
  match Option.bind (J.member k j) J.to_str with
  | Some s -> s
  | None -> Alcotest.failf "reply lacks string %S" k

let int_field k j =
  match Option.bind (J.member k j) J.to_int with
  | Some n -> n
  | None -> Alcotest.failf "reply lacks int %S" k

let tele_field k j =
  match Option.bind (J.member "telemetry" j) (J.member k) with
  | Some (J.Int n) -> n
  | _ -> Alcotest.failf "reply telemetry lacks %S" k

let codes j =
  match Option.bind (J.member "diagnostics" j) J.to_list with
  | Some ds -> List.filter_map (fun d -> Option.bind (J.member "code" d) J.to_str) ds
  | None -> []

(* Three declarations: [dep] references [nat]; [exp] is unrelated to
   both (and not subordinate to either), so a [nat] edit must re-check
   [nat] and [dep] but reuse [exp]. *)
let nat = "LF nat : type =\n| z : nat\n| s : nat -> nat;"
let nat' = "LF nat : type =\n| z : nat\n| s : nat -> nat\n| t : nat;"

let exp =
  "LF exp : type =\n| lam : (exp -> exp) -> exp\n| app : exp -> exp -> exp;"

let dep = "LF vec : type =\n| nil : vec\n| cons : nat -> vec -> vec;"
let src3 a = String.concat "\n\n" [ a; exp; dep ]

let incremental_tests =
  [
    test "identical resubmission re-checks nothing" (fun () ->
        let t = Serve.create () in
        let r1 = round t (request ~source:(src3 nat) 1) in
        Alcotest.(check string) "status" "ok" (str_field "status" r1);
        Alcotest.(check int) "cold re-checks all" 3 (tele_field "rechecked" r1);
        let r2 = round t (request ~source:(src3 nat) 2) in
        Alcotest.(check int) "warm re-checks none" 0 (tele_field "rechecked" r2);
        Alcotest.(check int) "all reused" 3 (tele_field "reused" r2);
        Alcotest.(check int) "no decl spans" 0 (tele_field "decl_spans" r2));
    test "editing one decl re-checks only its dependents" (fun () ->
        let t = Serve.create () in
        ignore (round t (request ~source:(src3 nat) 1));
        let r = round t (request ~source:(src3 nat') 2) in
        Alcotest.(check string) "status" "ok" (str_field "status" r);
        Alcotest.(check int) "exit" 0 (int_field "exit_code" r);
        (* nat (edited); vec references nat, but nat, z and s keep their
           kinds and types, so vec reads what it read before; exp is
           untouched *)
        Alcotest.(check int) "rechecked" 1 (tele_field "rechecked" r);
        Alcotest.(check int) "reused" 2 (tele_field "reused" r);
        (* the telemetry decl spans are the ground truth: exactly the
           re-checked declarations went through the checking pipeline *)
        Alcotest.(check int) "decl spans" 1 (tele_field "decl_spans" r));
    test "an erroneous declaration recovers fully once fixed" (fun () ->
        let t = Serve.create () in
        let broken = "LF vec : type =\n| cons : natt -> vec -> vec;" in
        let r1 =
          round t
            (request ~source:(String.concat "\n\n" [ nat; broken ]) 1)
        in
        Alcotest.(check int) "exit 1 while broken" 1 (int_field "exit_code" r1);
        Alcotest.(check bool) "E0201 reported" true
          (List.mem "E0201" (codes r1));
        let r2 =
          round t (request ~source:(String.concat "\n\n" [ nat; dep ]) 2)
        in
        Alcotest.(check string) "status" "ok" (str_field "status" r2);
        Alcotest.(check int) "exit 0 once fixed" 0 (int_field "exit_code" r2);
        Alcotest.(check (list string)) "no diagnostics" [] (codes r2);
        (* only the fixed declaration re-checks; nat is reused *)
        Alcotest.(check int) "rechecked" 1 (tele_field "rechecked" r2);
        Alcotest.(check int) "reused" 1 (tele_field "reused" r2));
    test "inserting a declaration before the first one reparses fully"
      (fun () ->
        let t = Serve.create () in
        (* leading trivia puts the first declaration's start past the
           common prefix of the two texts; the incremental reparse must
           not blank bytes of the new text's inserted declaration *)
        let r1 = round t (request ~source:("\n" ^ nat) 1) in
        Alcotest.(check string) "status" "ok" (str_field "status" r1);
        let r2 =
          round t (request ~source:("LF bool : type;\n\n" ^ nat) 2)
        in
        Alcotest.(check string) "status" "ok" (str_field "status" r2);
        Alcotest.(check int) "exit 0" 0 (int_field "exit_code" r2);
        Alcotest.(check (list string)) "no diagnostics" [] (codes r2));
    test "removing a declaration retracts it from the session" (fun () ->
        let t = Serve.create () in
        ignore (round t (request ~source:(src3 nat) 1));
        let r = round t (request ~source:nat 2) in
        Alcotest.(check string) "status" "ok" (str_field "status" r);
        let typs =
          match
            Option.bind (J.member "result" r) (fun res ->
                Option.bind (J.member "summary" res) (J.member "typs"))
          with
          | Some (J.Int n) -> n
          | _ -> Alcotest.fail "no summary.typs"
        in
        Alcotest.(check int) "one family left" 1 typs);
  ]

(** Live (occupied) slots of a direct-mapped memo table. *)
let occupied tbl = Array.fold_left (fun n e -> if e = None then n else n + 1) 0 tbl

let robustness_tests =
  [
    test "the memory-pressure reset (W0901) drops every kernel cache"
      (fun () ->
        let t = Serve.create ~watermark:1 () in
        let r1 = round t (request ~source:Belr_kits.Surface.full_src 1) in
        Alcotest.(check bool) "W0901 reported" true (List.mem "W0901" (codes r1));
        Alcotest.(check string) "status" "degraded" (str_field "status" r1);
        Alcotest.(check int) "exit 0" 0 (int_field "exit_code" r1);
        let ses = Hashtbl.find t.Serve.sv_sessions "s" in
        Belr_lf.Session.with_ ses.Serve.ss_core (fun () ->
            let open Belr_lf in
            let h = Hsub.current_tables () and w = Whnf.current_tables () in
            Alcotest.(check int) "store empty" 0
              (Belr_syntax.Lf.store_stats ()).Belr_syntax.Lf.st_live;
            Alcotest.(check int) "hsub normal memo empty" 0
              (occupied h.Hsub.tb_normal);
            Alcotest.(check int) "hsub typ memo empty" 0 (occupied h.Hsub.tb_typ);
            Alcotest.(check int) "hsub srt memo empty" 0 (occupied h.Hsub.tb_srt);
            Alcotest.(check int) "whnf memo empty" 0 (occupied w.Whnf.wt_root));
        (* sharing is lost, results are not: an edit re-checks against
           the signature's now-unshared terms *)
        let r2 =
          round t
            (request ~source:(Belr_kits.Surface.full_src ^ "\n\n" ^ nat) 2)
        in
        Alcotest.(check int) "re-check after the reset: exit 0" 0
          (int_field "exit_code" r2));
    test "an injected kernel fault yields a structured error reply, and \
          the next request on a fresh session succeeds" (fun () ->
        let t = Serve.create () in
        Fault.arm ~site:"store-intern" ~n:1;
        let r1 =
          Fun.protect ~finally:Fault.disarm (fun () ->
              round t (request ~session:"a" ~source:nat 1))
        in
        Alcotest.(check string) "status" "error" (str_field "status" r1);
        Alcotest.(check int) "exit 2" 2 (int_field "exit_code" r1);
        Alcotest.(check bool) "B0003 reported" true
          (List.mem "B0003" (codes r1));
        let r2 = round t (request ~session:"b" ~source:nat 2) in
        Alcotest.(check string) "fresh session ok" "ok" (str_field "status" r2);
        Alcotest.(check int) "exit 0" 0 (int_field "exit_code" r2));
    test "malformed input is a structured E0904 and the loop resyncs"
      (fun () ->
        let t = Serve.create () in
        let r1 = round t "{{{ not json" in
        Alcotest.(check string) "status" "error" (str_field "status" r1);
        Alcotest.(check bool) "E0904" true (List.mem "E0904" (codes r1));
        Alcotest.(check bool) "blank line: no reply" true
          (Serve.handle_line t "   " = None);
        let r2 = round t (request ~source:nat 2) in
        Alcotest.(check string) "next request fine" "ok"
          (str_field "status" r2));
    test "an unknown method is rejected without killing the session"
      (fun () ->
        let t = Serve.create () in
        ignore (round t (request ~source:nat 1));
        let r = round t (request ~meth:"frobnicate" 2) in
        Alcotest.(check string) "status" "error" (str_field "status" r);
        Alcotest.(check bool) "E0904" true (List.mem "E0904" (codes r));
        let r2 = round t (request ~source:nat 3) in
        Alcotest.(check int) "session survived: everything reused" 0
          (tele_field "rechecked" r2));
    test "an expired deadline degrades the reply with E0903" (fun () ->
        let t = Serve.create () in
        let r = round t (request ~deadline_ms:0 ~source:(src3 nat) 1) in
        Alcotest.(check string) "status" "degraded" (str_field "status" r);
        Alcotest.(check bool) "E0903" true (List.mem "E0903" (codes r));
        (* the session is consistent: the next, undeadlined request
           finishes the work *)
        let r2 = round t (request ~source:(src3 nat) 2) in
        Alcotest.(check string) "recovers" "ok" (str_field "status" r2);
        Alcotest.(check int) "exit 0" 0 (int_field "exit_code" r2));
    test "the error cap firing mid-check leaves the session consistent"
      (fun () ->
        let t = Serve.create ~max_errors:1 () in
        let broken = "LF vec : type =\n| cons : natt -> vec -> vec;" in
        let r1 =
          round t
            (request ~source:(String.concat "\n\n" [ nat; broken; exp ]) 1)
        in
        Alcotest.(check int) "exit 1 while broken" 1 (int_field "exit_code" r1);
        (* the cap aborted the re-check loop mid-way; the session must
           still have committed its entry list, so fixing the file fully
           recovers (no duplicate-declaration noise from stale entries) *)
        let r2 =
          round t
            (request ~source:(String.concat "\n\n" [ nat; dep; exp ]) 2)
        in
        Alcotest.(check string) "status" "ok" (str_field "status" r2);
        Alcotest.(check int) "exit 0 once fixed" 0 (int_field "exit_code" r2);
        Alcotest.(check (list string)) "no diagnostics" [] (codes r2));
    test "a protocol error does not leak its step budget" (fun () ->
        let t = Serve.create ~deadline_ms:60_000 () in
        (* computation checking performs guarded steps, so a stale
           one-step budget is guaranteed to trip on this source *)
        let src =
          String.concat "\n\n"
            [
              nat; "LFR pos <| nat : sort =\n| s : nat -> pos;";
              "rec pred : [ |- pos] -> [ |- nat] =\n\
               fn d => case d of\n\
               | {N : [ |- nat]}\n\
               \  [ |- s N] => [ |- N];";
            ]
        in
        (* rejected before [finish] runs, with a tiny budget armed *)
        let r1 = round t (request ~step_budget:1 1) in
        Alcotest.(check string) "status" "error" (str_field "status" r1);
        (* the next, unbudgeted request must not run under the stale cap *)
        let r2 = round t (request ~source:src 2) in
        Alcotest.(check string) "status" "ok" (str_field "status" r2);
        Alcotest.(check int) "exit 0" 0 (int_field "exit_code" r2);
        Alcotest.(check (list string)) "no diagnostics" [] (codes r2));
    test "a missing source/file is a protocol error" (fun () ->
        let t = Serve.create () in
        let r = round t (request 1) in
        Alcotest.(check string) "status" "error" (str_field "status" r);
        Alcotest.(check bool) "E0904" true (List.mem "E0904" (codes r)));
    test "reset gives the session a fresh world" (fun () ->
        let t = Serve.create () in
        ignore (round t (request ~source:(src3 nat) 1));
        let r = round t (request ~meth:"reset" 2) in
        Alcotest.(check string) "reset ok" "ok" (str_field "status" r);
        let r2 = round t (request ~source:(src3 nat) 3) in
        Alcotest.(check int) "everything re-checks" 3
          (tele_field "rechecked" r2));
    test "an engine fault discards the session without leaking the \
          request id or the telemetry flag" (fun () ->
        let t = Serve.create () in
        ignore (round t (request ~source:(src3 nat) 1));
        let was_enabled = Telemetry.enabled () in
        Fault.arm ~site:"serve-dispatch" ~n:1;
        let r =
          Fun.protect ~finally:Fault.disarm (fun () ->
              round t (request ~source:(src3 nat) 2))
        in
        Alcotest.(check string) "status" "error" (str_field "status" r);
        Alcotest.(check int) "exit 2" 2 (int_field "exit_code" r);
        Alcotest.(check bool) "B0002 reported" true
          (List.mem "B0002" (codes r));
        (* the crash path must not leak ambient telemetry state into the
           next request's spans *)
        Alcotest.(check string) "request id cleared" ""
          (Telemetry.current_request_id ());
        Alcotest.(check bool) "telemetry flag restored" was_enabled
          (Telemetry.enabled ());
        (* crash-only: the session was discarded, so the next request on
           the same name starts from a fresh world and re-checks all *)
        let r2 = round t (request ~source:(src3 nat) 3) in
        Alcotest.(check string) "fresh world ok" "ok" (str_field "status" r2);
        Alcotest.(check int) "re-checks all" 3 (tele_field "rechecked" r2);
        (* every other path restores the flag too, from either state: a
           malformed line (which never reaches the request handler, yet
           still counts, since recording is on for the whole line), an
           unknown method, and a normal check *)
        let protocol_errors () =
          Telemetry.counter_total (Telemetry.counter "serve.protocol_errors")
        in
        Fun.protect
          ~finally:(fun () -> Telemetry.set_enabled was_enabled)
          (fun () ->
            List.iter
              (fun before ->
                Telemetry.set_enabled before;
                let after what =
                  Alcotest.(check bool)
                    (Fmt.str "flag %b restored after %s" before what)
                    before (Telemetry.enabled ())
                in
                let e0 = protocol_errors () in
                let r = round t "{\"method\": \"check\", oops" in
                after "a malformed line";
                Alcotest.(check (list string)) "malformed: E0904" [ "E0904" ]
                  (codes r);
                Alcotest.(check int) "malformed line counted" (e0 + 1)
                  (protocol_errors ());
                let r = round t (request ~meth:"frobnicate" 4) in
                after "an unknown method";
                Alcotest.(check (list string)) "unknown: E0904" [ "E0904" ]
                  (codes r);
                Alcotest.(check int) "unknown method counted" (e0 + 2)
                  (protocol_errors ());
                let r = round t (request ~source:(src3 nat) 5) in
                after "a check";
                Alcotest.(check string) "check ok" "ok" (str_field "status" r))
              [ false; true ]));
    test "lint and health answer on a checked session; stats is gone"
      (fun () ->
        let t = Serve.create () in
        ignore (round t (request ~source:(src3 nat) 1));
        let rl = round t (request ~meth:"lint" 2) in
        Alcotest.(check string) "lint ok" "ok" (str_field "status" rl);
        let rs = round t (request ~meth:"stats" 3) in
        Alcotest.(check string) "stats rejected" "error"
          (str_field "status" rs);
        Alcotest.(check (list string)) "as a protocol error" [ "E0904" ]
          (codes rs);
        let rh = round t (request ~meth:"health" 4) in
        Alcotest.(check string) "health ok" "ok" (str_field "status" rh);
        match
          Option.bind (J.member "result" rh) (J.member "requests")
        with
        | Some (J.Int n) -> Alcotest.(check int) "request count" 4 n
        | _ -> Alcotest.fail "health lacks requests");
  ]

let observability_tests =
  [
    test "metrics answers the belr-metrics/1 report with a populated \
          serve.check histogram" (fun () ->
        let t = Serve.create () in
        ignore (round t (request ~source:(src3 nat) 1));
        let r = round t (request ~meth:"metrics" 2) in
        Alcotest.(check string) "status" "ok" (str_field "status" r);
        let result =
          match J.member "result" r with
          | Some res -> res
          | None -> Alcotest.fail "metrics reply lacks result"
        in
        Alcotest.(check bool) "schema" true
          (J.member "schema" result = Some (J.String "belr-metrics/1"));
        let check_hist =
          match Option.bind (J.member "histograms" result) J.to_list with
          | Some hs ->
              List.find_opt
                (fun h -> J.member "name" h = Some (J.String "serve.check"))
                hs
          | None -> Alcotest.fail "metrics reply lacks histograms"
        in
        match check_hist with
        | None -> Alcotest.fail "no serve.check histogram"
        | Some h -> (
            (match J.member "count" h with
            | Some (J.Int n) -> Alcotest.(check bool) "count >= 1" true (n >= 1)
            | _ -> Alcotest.fail "serve.check lacks count");
            match J.member "p50_ns" h with
            | Some (J.Int p) -> Alcotest.(check bool) "p50 > 0" true (p > 0)
            | _ -> Alcotest.fail "serve.check lacks p50_ns"));
    test "health reports up, with live nodes and uptime" (fun () ->
        let t = Serve.create () in
        ignore (round t (request ~source:(src3 nat) 1));
        let r = round t (request ~meth:"health" 2) in
        Alcotest.(check string) "status" "ok" (str_field "status" r);
        let result =
          match J.member "result" r with
          | Some res -> res
          | None -> Alcotest.fail "health reply lacks result"
        in
        Alcotest.(check bool) "up" true
          (J.member "status" result = Some (J.String "up"));
        (match J.member "requests" result with
        | Some (J.Int n) -> Alcotest.(check int) "requests" 2 n
        | _ -> Alcotest.fail "health lacks requests");
        (match J.member "live_nodes" result with
        | Some (J.Int n) -> Alcotest.(check bool) "live nodes > 0" true (n > 0)
        | _ -> Alcotest.fail "health lacks live_nodes");
        match J.member "uptime_ns" result with
        | Some (J.Int n) -> Alcotest.(check bool) "uptime > 0" true (n > 0)
        | _ -> Alcotest.fail "health lacks uptime_ns");
    test "reset reports the peaks observed before the reset" (fun () ->
        let t = Serve.create () in
        ignore (round t (request ~source:(src3 nat) 1));
        let r = round t (request ~meth:"reset" 2) in
        Alcotest.(check string) "status" "ok" (str_field "status" r);
        let result =
          match J.member "result" r with
          | Some res -> res
          | None -> Alcotest.fail "reset reply lacks result"
        in
        (match J.member "store_live_before_reset" result with
        | Some (J.Int n) ->
            Alcotest.(check bool) "store was populated" true (n > 0)
        | _ -> Alcotest.fail "reset lacks store_live_before_reset");
        match J.member "peaks_before_reset" result with
        | Some (J.Obj _) -> ()
        | _ -> Alcotest.fail "reset lacks peaks_before_reset");
    test "warm lint replies replay the cached analysis; an edit \
          invalidates exactly its closure" (fun () ->
        let t = Serve.create () in
        ignore (round t (request ~source:(src3 nat) 1));
        let l1 = round t (request ~meth:"lint" 2) in
        Alcotest.(check string) "cold lint ok" "ok" (str_field "status" l1);
        Alcotest.(check int) "cold lint analyzes all" 3
          (tele_field "rechecked" l1);
        let l2 = round t (request ~meth:"lint" 3) in
        Alcotest.(check int) "warm lint re-analyzes none" 0
          (tele_field "rechecked" l2);
        Alcotest.(check int) "warm lint reuses all" 3
          (tele_field "reused" l2);
        (* the replayed reply is indistinguishable from the cold one *)
        Alcotest.(check bool) "same result" true
          (J.member "result" l1 = J.member "result" l2);
        Alcotest.(check (list string)) "same findings" (codes l1) (codes l2);
        Alcotest.(check int) "same exit code" (int_field "exit_code" l1)
          (int_field "exit_code" l2);
        (* a nat edit dirties the cache; the reported recheck count is
           what the check re-checked (nat: vec reads nothing new), not
           the whole file *)
        ignore (round t (request ~source:(src3 nat') 4));
        let l3 = round t (request ~meth:"lint" 5) in
        Alcotest.(check int) "edited lint re-analyzes the re-checked" 1
          (tele_field "rechecked" l3);
        Alcotest.(check int) "the rest reused" 2 (tele_field "reused" l3));
    test "warm total replies replay the cached analysis" (fun () ->
        let t = Serve.create () in
        ignore (round t (request ~source:(src3 nat) 1));
        let t1 = round t (request ~meth:"total" 2) in
        Alcotest.(check string) "cold total ok" "ok" (str_field "status" t1);
        Alcotest.(check int) "cold total analyzes all" 3
          (tele_field "rechecked" t1);
        let t2 = round t (request ~meth:"total" 3) in
        Alcotest.(check int) "warm total re-analyzes none" 0
          (tele_field "rechecked" t2);
        Alcotest.(check int) "warm total reuses all" 3
          (tele_field "reused" t2);
        Alcotest.(check bool) "same result" true
          (J.member "result" t1 = J.member "result" t2);
        Alcotest.(check (list string)) "same findings" (codes t1) (codes t2);
        (* reset drops the caches along with the session's world *)
        ignore (round t (request ~meth:"reset" 4));
        ignore (round t (request ~source:(src3 nat) 5));
        let t3 = round t (request ~meth:"total" 6) in
        Alcotest.(check int) "post-reset total re-analyzes all" 3
          (tele_field "rechecked" t3));
    test "warm modes replies replay the cached analysis" (fun () ->
        let t = Serve.create () in
        let moded = src3 nat ^ "\n\n%mode nat;" in
        ignore (round t (request ~source:moded 1));
        let m1 = round t (request ~meth:"modes" 2) in
        Alcotest.(check string) "cold modes ok" "ok" (str_field "status" m1);
        Alcotest.(check int) "cold modes analyzes all" 4
          (tele_field "rechecked" m1);
        (match J.member "result" m1 with
        | Some res ->
            Alcotest.(check bool) "one mode declaration" true
              (J.member "modes" res = Some (J.Int 1));
            Alcotest.(check bool) "one moded family" true
              (J.member "families" res = Some (J.Int 1));
            Alcotest.(check bool) "clean" true
              (J.member "clean" res = Some (J.Int 1));
            Alcotest.(check bool) "nothing missing" true
              (J.member "missing" res = Some (J.Int 0))
        | None -> Alcotest.fail "modes reply lacks result");
        let m2 = round t (request ~meth:"modes" 3) in
        Alcotest.(check int) "warm modes re-analyzes none" 0
          (tele_field "rechecked" m2);
        Alcotest.(check int) "warm modes reuses all" 4
          (tele_field "reused" m2);
        Alcotest.(check bool) "same result" true
          (J.member "result" m1 = J.member "result" m2);
        Alcotest.(check (list string)) "same findings" (codes m1) (codes m2);
        (* reset drops the cache along with the session's world *)
        ignore (round t (request ~meth:"reset" 4));
        ignore (round t (request ~source:moded 5));
        let m3 = round t (request ~meth:"modes" 6) in
        Alcotest.(check int) "post-reset modes re-analyzes all" 4
          (tele_field "rechecked" m3));
    test "metrics and health expose the incremental counters" (fun () ->
        let t = Serve.create () in
        ignore (round t (request ~source:(src3 nat) 1));
        ignore (round t (request ~source:(src3 nat') 2));
        let result meth id =
          match J.member "result" (round t (request ~meth id)) with
          | Some res -> res
          | None -> Alcotest.failf "%s reply lacks result" meth
        in
        let counters =
          Option.value ~default:[]
            (Option.bind (J.member "counters" (result "metrics" 3)) J.to_list)
        in
        (match
           List.find_opt
             (fun c ->
               J.member "name" c = Some (J.String "serve.decls.rechecked"))
             counters
         with
        | Some c -> (
            match J.member "value" c with
            | Some (J.Int n) ->
                (* 3 cold + 2 invalidated by the nat edit *)
                Alcotest.(check bool) "rechecked >= 5" true (n >= 5)
            | _ -> Alcotest.fail "serve.decls.rechecked lacks its value")
        | None -> Alcotest.fail "metrics lacks serve.decls.rechecked");
        match J.member "telemetry_events_dropped" (result "health" 4) with
        | Some (J.Int _) -> ()
        | _ -> Alcotest.fail "health lacks telemetry_events_dropped");
    test "worlds answers like a batch run, replays on a repeat, and an \
          edit invalidates it" (fun () ->
        let src = Test_worlds.sig_src ^ Test_worlds.refl_src in
        let batch =
          let sink = Diagnostics.sink () in
          let sg = Driver.check_sources sink [ ("<serve>", src) ] in
          ignore (Driver.run_analysis (Driver.worlds_analysis ()) sink sg);
          List.map (fun d -> d.Diagnostics.d_code) (Diagnostics.all sink)
        in
        Alcotest.(check bool) "the batch run has findings" true (batch <> []);
        let t = Serve.create () in
        ignore (round t (request ~source:src 1));
        let w1 = round t (request ~meth:"worlds" 2) in
        Alcotest.(check string) "worlds ok" "ok" (str_field "status" w1);
        Alcotest.(check (list string)) "the batch run's codes" batch (codes w1);
        let w2 = round t (request ~meth:"worlds" 3) in
        Alcotest.(check int) "a repeat is a cache hit" 0
          (tele_field "rechecked" w2);
        Alcotest.(check bool) "same result" true
          (J.member "result" w1 = J.member "result" w2);
        Alcotest.(check (list string)) "same findings" (codes w1) (codes w2);
        ignore (round t (request ~source:(src ^ "\n\nLF extra : type;") 4));
        let w3 = round t (request ~meth:"worlds" 5) in
        Alcotest.(check bool) "the edit is re-analyzed" true
          (tele_field "rechecked" w3 > 0);
        Alcotest.(check (list string)) "same codes after the edit" batch
          (codes w3));
  ]

(* --- server-wide methods never create a session ------------------------- *)

let result_of r =
  match J.member "result" r with
  | Some res -> res
  | None -> Alcotest.fail "reply lacks result"

let gauge name = Telemetry.gauge_value (Telemetry.gauge name)

(** Run [f] inside the world of [t]'s session [name]. *)
let in_session t name f =
  Belr_lf.Session.with_ (Hashtbl.find t.Serve.sv_sessions name).Serve.ss_core f

let health_gauge_tests =
  [
    test "health and metrics count live sessions only and aggregate \
          their store" (fun () ->
        let t = Serve.create () in
        (* a fresh server: no session, nothing live, and probing creates
           nothing *)
        let h0 = result_of (round t (request ~meth:"health" 1)) in
        Alcotest.(check int) "fresh: no sessions" 0 (int_field "sessions" h0);
        Alcotest.(check int) "fresh: nothing live" 0
          (int_field "live_nodes" h0);
        ignore (round t (request ~meth:"metrics" 2));
        Alcotest.(check (float 0.)) "fresh: serve.sessions gauge" 0.
          (gauge "serve.sessions");
        Alcotest.(check int) "fresh: still no sessions" 0
          (Hashtbl.length t.Serve.sv_sessions);
        (* one checked session *)
        ignore (round t (request ~session:"a" ~source:(src3 nat) 3));
        let live_a = in_session t "a" Belr_lf.Session.store_live in
        Alcotest.(check bool) "the check interned nodes" true (live_a > 0);
        let h1 = result_of (round t (request ~meth:"health" 4)) in
        Alcotest.(check int) "one session" 1 (int_field "sessions" h1);
        Alcotest.(check int) "its live nodes" live_a
          (int_field "live_nodes" h1);
        (* probes naming an unknown session neither create it nor change
           the aggregate *)
        let h2 =
          result_of (round t (request ~session:"nobody" ~meth:"health" 5))
        in
        ignore (round t (request ~session:"nobody" ~meth:"metrics" 6));
        Alcotest.(check int) "still one session" 1 (int_field "sessions" h2);
        Alcotest.(check bool) "the probed name was not created" false
          (Hashtbl.mem t.Serve.sv_sessions "nobody");
        Alcotest.(check (float 0.)) "serve.sessions gauge" 1.
          (gauge "serve.sessions");
        Alcotest.(check (float 0.)) "store.live gauge" (float_of_int live_a)
          (gauge "store.live");
        (* a second session: store counts sum, limit peaks take the max *)
        ignore (round t (request ~session:"b" ~source:nat 7));
        let live_b = in_session t "b" Belr_lf.Session.store_live in
        let h3 = result_of (round t (request ~meth:"health" 8)) in
        Alcotest.(check int) "two sessions" 2 (int_field "sessions" h3);
        Alcotest.(check int) "summed live nodes" (live_a + live_b)
          (int_field "live_nodes" h3);
        ignore (round t (request ~meth:"metrics" 9));
        Alcotest.(check (float 0.)) "summed store.live gauge"
          (float_of_int (live_a + live_b))
          (gauge "store.live");
        List.iter2
          (fun (name, pa) (_, pb) ->
            Alcotest.(check (float 0.))
              ("limits.peak." ^ name)
              (float_of_int (max pa pb))
              (gauge ("limits.peak." ^ name)))
          (in_session t "a" Limits.peaks)
          (in_session t "b" Limits.peaks));
  ]

(* --- query accounting from check stamps ---------------------------------- *)

(** Check [src] on session ["s"] and return the keys the check actually
    re-checked: the entries it stamped. *)
let check_closure t id src =
  ignore (round t (request ~source:src id));
  let ses = Serve.find_session t "s" in
  List.fold_left
    (fun keys e ->
      if e.Serve.en_stamp = ses.Serve.ss_checks then
        Serve.SS.add e.Serve.en_key keys
      else keys)
    Serve.SS.empty ses.Serve.ss_entries

let exp' =
  "LF exp : type =\n| lam : (exp -> exp) -> exp\n| app : exp -> exp -> exp\n\
   | var : exp;"

let broken_vec = "LF vec : type =\n| cons : natt -> vec -> vec;"
let bool_decl = "LF bool : type =\n| tt : bool\n| ff : bool;"
let lines ds = String.concat "\n\n" ds

let stamp_tests =
  [
    test "after one edit, a query counts the edit's invalidation closure"
      (fun () ->
        let t = Serve.create () in
        ignore (round t (request ~source:(lines [ nat; exp; dep ]) 1));
        ignore (round t (request ~meth:"lint" 2));
        (* edit, insert, delete (breaking a dependent), re-insert, a
           failing edit, and its fix: one check between two queries *)
        let steps =
          [
            ("edit", lines [ nat'; exp; dep ]);
            ("insert", lines [ nat'; bool_decl; exp; dep ]);
            ("delete", lines [ bool_decl; exp; dep ]);
            ("re-insert", lines [ nat; bool_decl; exp; dep ]);
            ("failing edit", lines [ nat; bool_decl; exp; broken_vec ]);
            ("fix", lines [ nat; bool_decl; exp; dep ]);
          ]
        in
        let sizes =
          List.mapi
            (fun i (what, src) ->
              let closure = check_closure t (10 + (2 * i)) src in
              let q = round t (request ~meth:"lint" (11 + (2 * i))) in
              let n = Serve.SS.cardinal closure in
              let decls =
                List.length (Serve.find_session t "s").Serve.ss_entries
              in
              Alcotest.(check int) (what ^ ": rechecked") n
                (tele_field "rechecked" q);
              Alcotest.(check int) (what ^ ": reused") (decls - n)
                (tele_field "reused" q);
              n)
            steps
        in
        (* edit: nat (vec reads nothing new); insert: bool; delete: vec
           (now failing); re-insert: nat + the failed vec; failing edit:
           vec; fix: vec *)
        Alcotest.(check (list int)) "closure sizes" [ 1; 1; 1; 2; 1; 1 ] sizes);
    test "after two edits, a query counts the union of both closures"
      (fun () ->
        let t = Serve.create () in
        ignore (round t (request ~source:(lines [ nat; exp; dep ]) 1));
        ignore (round t (request ~meth:"lint" 2));
        (* the second check reuses nat and vec, and must carry their
           stamps from the first over *)
        let c1 = check_closure t 3 (lines [ nat'; exp; dep ]) in
        let c2 = check_closure t 4 (lines [ nat'; exp'; dep ]) in
        let q = round t (request ~meth:"lint" 5) in
        Alcotest.(check int) "union of the closures"
          (Serve.SS.cardinal (Serve.SS.union c1 c2))
          (tele_field "rechecked" q);
        Alcotest.(check int) "nat and exp" 2 (tele_field "rechecked" q);
        (* the deliberate difference from a net diff against the cached
           entries: when a later check reverts an earlier edit, the
           stamps still count what both checks processed *)
        let cached = (Serve.find_session t "s").Serve.ss_entries in
        let c3 = check_closure t 6 (lines [ nat; exp'; dep ]) in
        let c4 = check_closure t 7 (lines [ nat'; exp; dep ]) in
        let q = round t (request ~meth:"lint" 8) in
        Alcotest.(check int) "union again"
          (Serve.SS.cardinal (Serve.SS.union c3 c4))
          (tele_field "rechecked" q);
        let net =
          Serve.invalid_keys cached (Serve.find_session t "s").Serve.ss_entries
        in
        (* nat is back to its cached text, so only exp differs *)
        Alcotest.(check (list string)) "the net diff is exp alone"
          [ "exp#0" ] (Serve.SS.elements net);
        Alcotest.(check int) "the stamps count nat and exp" 2
          (tele_field "rechecked" q));
    test "a declaration failing in every check is counted on every miss"
      (fun () ->
        let t = Serve.create () in
        ignore (round t (request ~source:(lines [ nat; broken_vec; exp ]) 1));
        let q0 = round t (request ~meth:"modes" 2) in
        Alcotest.(check int) "cold: all" 3 (tele_field "rechecked" q0);
        List.iteri
          (fun i e ->
            let src = lines [ nat; broken_vec; e ] in
            ignore (round t (request ~source:src (3 + (2 * i))));
            let q = round t (request ~meth:"modes" (4 + (2 * i))) in
            (* the edited exp, and vec retried because it failed *)
            Alcotest.(check int) "exp and the failing vec" 2
              (tele_field "rechecked" q);
            Alcotest.(check int) "nat reused" 1 (tele_field "reused" q))
          [ exp'; exp; exp' ]);
    test "reset makes the next miss count every declaration" (fun () ->
        let t = Serve.create () in
        let src = lines [ nat; exp; dep ] in
        ignore (round t (request ~source:src 1));
        ignore (round t (request ~meth:"total" 2));
        let warm = round t (request ~meth:"total" 3) in
        Alcotest.(check int) "warm: none" 0 (tele_field "rechecked" warm);
        ignore (round t (request ~meth:"reset" 4));
        ignore (round t (request ~source:src 5));
        let q = round t (request ~meth:"total" 6) in
        Alcotest.(check int) "after reset: all" 3 (tele_field "rechecked" q);
        Alcotest.(check int) "none reused" 0 (tele_field "reused" q));
  ]

(* --- splice reparse and the name-reference closure ------------------------- *)

(** [(code, loc)] of every diagnostic in a reply, in order. *)
let diag_locs j =
  List.map
    (fun d ->
      let s k =
        Option.value (Option.bind (J.member k d) J.to_str) ~default:""
      in
      (s "code", s "loc"))
    (Option.value
       (Option.bind (J.member "diagnostics" j) J.to_list)
       ~default:[])

(** A fresh server's reply to a check of [src] (or, with [meth], to that
    query after the check). *)
let fresh_reply ?(meth = "check") src =
  let t = Serve.create () in
  let r = round t (request ~source:src 1) in
  if meth = "check" then r else round t (request ~meth 2)

let parsed_decls () =
  Telemetry.counter_total (Telemetry.counter "serve.parsed_decls")

let fam name = Printf.sprintf "LF %s : type =\n| c%s : %s;\n" name name name

let splice_tests =
  [
    test "lines inserted above a %mode move its location as a fresh \
          check places it" (fun () ->
        let moded pad = src3 nat ^ "\n\n" ^ pad ^ "%mode nat;" in
        let mode_loc t =
          let ses = Serve.find_session t "s" in
          Option.map Loc.to_string
            (Belr_lf.Sign.decl_loc
               (Belr_lf.Session.sign ses.Serve.ss_core)
               "nat%mode")
        in
        let t = Serve.create () in
        ignore (round t (request ~source:(moded "") 1));
        let before = mode_loc t in
        let moved = moded "% a note\n\n" in
        let r2 = round t (request ~source:moved 2) in
        Alcotest.(check int) "still clean" 0 (int_field "exit_code" r2);
        let fresh = Serve.create () in
        ignore (round fresh (request ~source:moved 1));
        Alcotest.(check bool) "recorded" true (before <> None);
        Alcotest.(check bool) "moved" true (mode_loc t <> before);
        Alcotest.(check (option string)) "as fresh" (mode_loc fresh)
          (mode_loc t));
    test "a reorder that puts a use before its declaration re-checks it"
      (fun () ->
        let a = fam "a" and x = fam "x" and y = fam "y" in
        let b = "LF b : type =\n| cb : a -> b;\n" in
        let t = Serve.create () in
        let r1 = round t (request ~source:(a ^ x ^ b ^ y) 1) in
        Alcotest.(check int) "in order: exit 0" 0 (int_field "exit_code" r1);
        (* every slice hash is unchanged: only the order says b now
           precedes the declaration of the a it mentions *)
        let swapped = b ^ x ^ a ^ y in
        let r2 = round t (request ~source:swapped 2) in
        let fresh = fresh_reply swapped in
        Alcotest.(check int) "exit 1, as fresh" (int_field "exit_code" fresh)
          (int_field "exit_code" r2);
        Alcotest.(check int) "exit 1" 1 (int_field "exit_code" r2);
        Alcotest.(check (list (pair string string))) "diagnostics as fresh"
          (diag_locs fresh) (diag_locs r2);
        Alcotest.(check bool) "b is not in scope" true
          (List.exists
             (fun d ->
               J.member "message" d
               = Some (J.String "a is not a type or sort family"))
             (Option.value
                (Option.bind (J.member "diagnostics" r2) J.to_list)
                ~default:[]));
        (* b re-checks (flipped), and a with it: b's re-check must not
           see the a declared after it *)
        Alcotest.(check int) "rechecked a and b" 2 (tele_field "rechecked" r2);
        (* swapping back recovers *)
        let r3 = round t (request ~source:(a ^ x ^ b ^ y) 3) in
        Alcotest.(check int) "back in order: exit 0" 0
          (int_field "exit_code" r3);
        Alcotest.(check (list string)) "no diagnostics" [] (codes r3));
    test "warm analyses report the locations a fresh session does" (fun () ->
        let src =
          "LF nat : type =\n| z : nat\n| s : nat -> nat;\n\n\
           LF unused : type =\n| u : unused;\n"
        in
        let moved =
          "LF nat : type =\n| z : nat\n\n\n\n| s : nat -> nat;\n\n\
           LF unused : type =\n| u : unused;\n"
        in
        let t = Serve.create () in
        ignore (round t (request ~source:src 1));
        ignore (round t (request ~meth:"lint" 2));
        let r = round t (request ~source:moved 3) in
        Alcotest.(check int) "unused is reused" 1 (tele_field "reused" r);
        let warm = round t (request ~meth:"lint" 4) in
        let fresh = fresh_reply ~meth:"lint" moved in
        let sorted j = List.sort compare (diag_locs j) in
        Alcotest.(check (list (pair string string))) "same (code, loc) multiset"
          (sorted fresh) (sorted warm);
        Alcotest.(check bool) "u's W0704 at its moved line" true
          (List.mem ("W0704", "<serve>:9.2-3") (diag_locs warm)));
    test "a refinement-sort edit re-checks the sort alone" (fun () ->
        let nat_le =
          "LF nat : type =\n| z : nat\n| s : nat -> nat;\n\n\
           LF le : nat -> nat -> type =\n| le-z : le z N\n\
           | le-s : le N M -> le (s N) (s M);\n\n"
        in
        let src = nat_le ^ "LFR pos <| nat : sort =\n| s : nat -> pos;\n" in
        let edited = nat_le ^ "LFR pos <| nat : sort =\n| s : pos -> pos;\n" in
        let t = Serve.create () in
        ignore (round t (request ~source:src 1));
        let ses = Serve.find_session t "s" in
        let olds = ses.Serve.ss_entries in
        let news =
          Serve.entry_list edited
            (Parse.parse_program_tolerant (Diagnostics.sink ()) ~name:"<serve>"
               edited)
        in
        (* the subordination frontier re-checked nat, le and pos *)
        let reference =
          Belr_lf.Session.with_ ses.Serve.ss_core (fun () ->
              Ref_invalidate.invalid_keys
                (Belr_lf.Session.sign ses.Serve.ss_core)
                olds news)
        in
        Alcotest.(check (list string)) "the reference's closure"
          [ "le#0"; "nat#0"; "pos#0" ] (Serve.SS.elements reference);
        let r = round t (request ~source:edited 2) in
        Alcotest.(check int) "exit 0" 0 (int_field "exit_code" r);
        Alcotest.(check int) "rechecked pos alone" 1 (tele_field "rechecked" r);
        Alcotest.(check int) "reused nat and le" 2 (tele_field "reused" r));
    test "an edit in the middle of a large session parses only the edit"
      (fun () ->
        let src k =
          String.concat ""
            (List.init 300 (fun i ->
                 Printf.sprintf
                   "LF f%d : type =\n| c%d : f%d%s\n| d%d : f%d -> f%d;\n\n" i
                   i i
                   (if i = 150 then k else "")
                   i i i))
        in
        let t = Serve.create () in
        let p0 = parsed_decls () in
        ignore (round t (request ~source:(src "") 1));
        Alcotest.(check int) "the cold check parses everything" 300
          (parsed_decls () - p0);
        let p1 = parsed_decls () in
        let r = round t (request ~source:(src "\n| e150 : f150") 2) in
        Alcotest.(check int) "exit 0" 0 (int_field "exit_code" r);
        Alcotest.(check int) "rechecked the edited family" 1
          (tele_field "rechecked" r);
        Alcotest.(check bool) "at most 2 declarations parsed" true
          (parsed_decls () - p1 <= 2));
    test "a text that does not lex has no declarations, warm or fresh"
      (fun () ->
        let t = Serve.create () in
        let src = src3 nat in
        ignore (round t (request ~source:src 1));
        let bad = src ^ "\n\nLF q$ : type;\n" in
        let r = round t (request ~source:bad 2) in
        let fresh = fresh_reply bad in
        Alcotest.(check (list (pair string string))) "diagnostics as fresh"
          (diag_locs fresh) (diag_locs r);
        Alcotest.(check int) "no declarations" 0
          (List.length (Serve.find_session t "s").Serve.ss_entries);
        let r2 = round t (request ~source:src 3) in
        Alcotest.(check (list string)) "recovers" [] (codes r2));
    test "a duplicate declaration fails alike on every re-check" (fun () ->
        (* found by the edit-sequence property below: the failed duplicate
           retries on every check, and each retry used to leave one more
           orphan entry (and took the original's name binding with it) *)
        let src =
          String.concat "\n\n" [ nat; "LF d : type;"; "LF d : type;" ]
        in
        let t = Serve.create () in
        let fresh = fresh_reply src in
        List.iter
          (fun id ->
            let r = round t (request ~source:src id) in
            Alcotest.(check bool) "result as fresh" true
              (J.member "result" r = J.member "result" fresh);
            Alcotest.(check (list (pair string string))) "diagnostics as fresh"
              (diag_locs fresh) (diag_locs r))
          [ 1; 2; 3 ];
        Alcotest.(check bool) "one d" true
          (Option.bind (J.member "result" fresh) (fun r ->
               Option.bind (J.member "summary" r) (J.member "typs"))
          = Some (J.Int 2)));
    test "retracting a constant sorted in two families leaves the \
          signature a fresh one would have" (fun () ->
        let open Belr_lf in
        let src =
          "LF nat : type =\n| z : nat\n| s : nat -> nat;\n\n\
           LFR even <| nat : sort =\n| z : even\n| s : odd -> even\n\
           and odd <| nat : sort =\n| s : even -> odd;\n"
        in
        let fresh = Process.program src in
        let warm = Process.program src in
        let c name = Belr_kits.Lookup.find_const warm name in
        let srt sg name = Belr_kits.Lookup.find_srt sg name in
        let s = c "s" in
        let ce = Sign.const_entry warm s in
        let sorts =
          List.map
            (fun f -> (f, Option.get (Sign.csort warm ~const:s ~family:f)))
            [ srt warm "even"; srt warm "odd" ]
        in
        (* a retire pass in which s does not come back *)
        Sign.retire warm [ "s" ];
        Sign.settle warm;
        List.iter
          (fun (f, _) ->
            Alcotest.(check bool) "no sort left" true
              (Sign.csort warm ~const:s ~family:f = None);
            Alcotest.(check bool) "not a member" false
              (List.mem s (Sign.constants_of_srt warm f)))
          sorts;
        let s' =
          Sign.add_const warm ~name:"s" ~typ:ce.Sign.c_typ
            ~implicit:ce.Sign.c_implicit
        in
        List.iter
          (fun (_, (srt, implicit)) ->
            Sign.add_csort warm ~const:s' ~srt ~implicit)
          sorts;
        let view sg =
          let name c = (Sign.const_entry sg c).Sign.c_name in
          List.map
            (fun f ->
              let fid = srt sg f in
              ( f,
                List.map name (Sign.constants_of_srt sg fid),
                List.map
                  (fun c ->
                    let cid = Belr_kits.Lookup.find_const sg c in
                    Option.map
                      (fun (st, i) ->
                        (Fmt.str "%a" (Belr_syntax.Pp.pp_srt (Sign.pp_env sg)) st, i))
                      (Sign.csort sg ~const:cid ~family:fid))
                  [ "z"; "s" ] ))
            [ "even"; "odd" ]
        in
        Alcotest.(check bool) "same sorts and members as fresh" true
          (view fresh = view warm));
  ]

(* --- early cutoff: re-check only what reads a changed meaning ------------ *)

(** Check [src] on [t] and on a fresh server: the replies must agree on
    the exit code, the diagnostics with their locations, the summary and
    the failed count.  Returns the warm reply. *)
let check_as_fresh t id src =
  let warm = round t (request ~source:src id) in
  let fresh = fresh_reply src in
  Alcotest.(check int) "exit as fresh" (int_field "exit_code" fresh)
    (int_field "exit_code" warm);
  Alcotest.(check (list (pair string string))) "diagnostics as fresh"
    (diag_locs fresh) (diag_locs warm);
  Alcotest.(check bool) "result as fresh" true
    (J.member "result" warm = J.member "result" fresh);
  warm

(** A development whose users read [nat], [le] and [pos] in every way a
    check can: by a constructor, by a family, by a function's sort, and
    through a function's sort alone ([h] reaches [pos] only through [g]). *)
let cutoff_src ?(le_z = "le z N") ?(le_s = "le N M -> le (s N) (s M)")
    ?(pos = "nat -> pos") ?(pred_body = "[ |- N]")
    ?(pred_sort = "[ |- pos] -> [ |- nat]") ?(nat = nat) () =
  lines
    [
      nat;
      Printf.sprintf "LF le : nat -> nat -> type =\n| le-z : %s\n| le-s : %s;"
        le_z le_s;
      "LF zle : type =\n| zle-c : le z z -> zle;";
      "rec lz : [ |- le z z] = [ |- le-z z];";
      "rec l1 : [ |- le (s z) (s z)] = [ |- le-s z z (le-z z)];";
      Printf.sprintf "LFR pos <| nat : sort =\n| s : %s;" pos;
      "rec g : [ |- pos] -> [ |- pos] = fn x => x;";
      "rec h : [ |- nat] = case g [ |- s z] of\n\
       | {N : [ |- nat]}\n\
      \  [ |- s N] => [ |- N];";
      Printf.sprintf
        "rec pred : %s =\n\
         fn d => case d of\n\
         | {N : [ |- nat]}\n\
        \  [ |- s N] => %s;"
        pred_sort pred_body;
      "rec pp : [ |- pos] -> [ |- nat] = fn d => pred d;";
    ]

(** Check [cutoff_src ()], then [edited]; the edit's re-check count. *)
let cutoff_rechecks edited =
  let t = Serve.create () in
  let r0 = round t (request ~source:(cutoff_src ()) 1) in
  Alcotest.(check int) "the development checks" 0 (int_field "exit_code" r0);
  (t, tele_field "rechecked" (check_as_fresh t 2 edited))

(** [n] families in a chain: family [i]'s constructor takes family
    [i - 1]; family 0 has the kind [kind0] and, with [extra], a second
    constructor. *)
let chain ?(kind0 = "type") ?(extra = false) n =
  String.concat ""
    (List.init n (fun i ->
         if i = 0 then
           Printf.sprintf "LF f0 : %s =\n| c0 : f0%s;\n\n" kind0
             (if extra then "\n| e0 : f0" else "")
         else
           Printf.sprintf "LF f%d : type =\n| c%d : f%d -> f%d;\n\n" i i
             (i - 1) i))

let cutoff_tests =
  [
    test "adding a constructor re-checks the family alone" (fun () ->
        let _, n =
          cutoff_rechecks
            (cutoff_src ~nat:nat' ())
        in
        Alcotest.(check int) "rechecked nat" 1 n);
    test "changing a constructor's type re-checks its users" (fun () ->
        let _, n = cutoff_rechecks (cutoff_src ~le_z:"le N N" ()) in
        (* le, and lz and l1, which mention le-z; zle mentions le alone *)
        Alcotest.(check int) "rechecked le, lz and l1" 3 n);
    test "changing a constructor's implicit count re-checks its users"
      (fun () ->
        let _, n = cutoff_rechecks (cutoff_src ~le_z:"{N : nat} le z N" ()) in
        Alcotest.(check int) "rechecked le, lz and l1" 3 n);
    test "renaming a binder re-checks nothing else" (fun () ->
        let _, n =
          cutoff_rechecks (cutoff_src ~le_s:"le N2 M -> le (s N2) (s M)" ())
        in
        Alcotest.(check int) "rechecked le" 1 n);
    test "a function body edit leaves its callers alone" (fun () ->
        let _, n = cutoff_rechecks (cutoff_src ~pred_body:"[ |- s N]" ()) in
        Alcotest.(check int) "rechecked pred" 1 n);
    test "a function sort edit re-checks its callers" (fun () ->
        let _, n =
          cutoff_rechecks (cutoff_src ~pred_sort:"[ |- nat] -> [ |- nat]" ())
        in
        Alcotest.(check int) "rechecked pred and pp" 2 n);
    test "a refinement keeps its sort assignments through its family's \
          re-check" (fun () ->
        let edited =
          cutoff_src ~nat:nat' ()
        in
        let t, n = cutoff_rechecks edited in
        Alcotest.(check int) "rechecked nat" 1 n;
        List.iteri
          (fun i meth ->
            let warm = round t (request ~meth (10 + i)) in
            let fresh = fresh_reply ~meth edited in
            let sorted j = List.sort compare (diag_locs j) in
            Alcotest.(check (list (pair string string)))
              (meth ^ ": findings as fresh") (sorted fresh) (sorted warm);
            Alcotest.(check int) (meth ^ ": exit as fresh")
              (int_field "exit_code" fresh) (int_field "exit_code" warm))
          [ "lint"; "total" ]);
    test "a changed sort assignment re-checks what reaches the sort" (fun () ->
        (* h mentions neither pos nor anything re-bound to a new id: it
           reaches pos through g's sort, which keeps its id *)
        let _, n = cutoff_rechecks (cutoff_src ~pos:"pos -> pos" ()) in
        (* pos, g and pred mention pos; pp calls the failing pred; h now
           fails as it does fresh (E0201: z has no sort in pos) *)
        Alcotest.(check int) "pos, g, h, pred and pp" 5 n);
    test "a new name re-checks the declarations that mention it" (fun () ->
        (* le's implicit N now resolves to the family N *)
        let t = Serve.create () in
        ignore (round t (request ~source:(cutoff_src ()) 1));
        let r =
          check_as_fresh t 2 ("LF N : type;\n\n" ^ cutoff_src ())
        in
        Alcotest.(check int) "exit 1" 1 (int_field "exit_code" r));
    test "a failing duplicate poisons a name its original put back" (fun () ->
        let d = "LF d : type;" in
        let user u = Printf.sprintf "LF %s : type =\n| %sc : d -> %s;" u u u in
        let t = Serve.create () in
        let before = lines [ nat; d; user "u1"; user "u2" ] in
        ignore (round t (request ~source:before 1));
        let r =
          check_as_fresh t 2 (lines [ nat; d; user "u1"; d; user "u2" ])
        in
        Alcotest.(check int) "exit 1" 1 (int_field "exit_code" r);
        (* the duplicate, and u2, which reads the poisoned d; the original
           d and u1, before the duplicate, are put back *)
        Alcotest.(check int) "rechecked the duplicate and u2" 2
          (tele_field "rechecked" r);
        ignore (check_as_fresh t 3 before));
    test "a deadline cutting the walk short leaves a consistent session"
      (fun () ->
        let t = Serve.create () in
        ignore (round t (request ~source:(cutoff_src ()) 1));
        let edited = cutoff_src ~le_z:"le N N" () in
        let r = round t (request ~deadline_ms:0 ~source:edited 2) in
        Alcotest.(check string) "degraded" "degraded" (str_field "status" r);
        Alcotest.(check bool) "E0903" true (List.mem "E0903" (codes r));
        ignore (check_as_fresh t 3 edited);
        ignore (check_as_fresh t 4 (cutoff_src ()));
        (* a deadline that passes somewhere inside a long walk *)
        let t = Serve.create ~max_errors:0 () in
        ignore (round t (request ~source:(chain 300) 5));
        let r =
          round t
            (request ~deadline_ms:1
               ~source:(chain ~kind0:"nat -> type" 300)
               6)
        in
        Alcotest.(check bool) "ok or degraded" true
          (List.mem (str_field "status" r) [ "ok"; "degraded" ]);
        ignore (check_as_fresh t 7 (chain ~kind0:"nat -> type" 300));
        ignore (check_as_fresh t 8 (chain 300)));
    test "warm analyses replay the locations of moved declarations" (fun () ->
        let nat = "LF nat : type =\n| z : nat\n| s : nat -> nat;\n\n" in
        let pred =
          "rec pred : [ |- nat] -> [ |- nat] =\n\
           fn d => case d of\n\
           | {N : [ |- nat]}\n\
          \  [ |- s N] => [ |- N];\n"
        in
        let src = nat ^ pred in
        let moved = "% a header comment\n" ^ src in
        let t = Serve.create () in
        ignore (round t (request ~source:src 1));
        ignore (round t (request ~meth:"total" 2));
        (* the comment is in no declaration's slice: every hash stays *)
        let r = round t (request ~source:moved 3) in
        Alcotest.(check int) "nothing re-checked" 0 (tele_field "rechecked" r);
        let warm = round t (request ~meth:"total" 4) in
        let fresh = fresh_reply ~meth:"total" moved in
        Alcotest.(check (list (pair string string))) "findings as fresh"
          (diag_locs fresh) (diag_locs warm);
        Alcotest.(check bool) "W0711 on its moved line" true
          (List.mem ("W0711", "<serve>:6.4-8") (diag_locs warm)));
    test "a world resolves to its first schema in source order" (fun () ->
        let a g1 =
          lines
            [
              "LF tm : type =\n| c : tm;";
              "schema g1 = " ^ g1 ^ ";";
              "schema g2 = | w : block (x : tm, y : tm);";
              "rec f : (Psi : g1) [Psi, b : w |- tm] =\n\
               mlam Psi => [Psi, b : w |- b.2];";
            ]
        in
        let t = Serve.create () in
        ignore (check_as_fresh t 1 (a "| w : block (x : tm)"));
        (* g1 re-checks under a new id, above g2's: the world w must still
           be g1's, whose block has no second field *)
        let r =
          check_as_fresh t 2
            (a "| w : block (x : tm) | v : block (z : tm, q : tm, r : tm)")
        in
        Alcotest.(check int) "exit 1" 1 (int_field "exit_code" r);
        Alcotest.(check (list string)) "E0201" [ "E0201" ] (codes r));
    test "a 300-family chain re-checks the edit's meaning, not its names"
      (fun () ->
        let t = Serve.create ~max_errors:0 () in
        ignore (round t (request ~source:(chain 300) 1));
        let r = round t (request ~source:(chain ~extra:true 300) 2) in
        Alcotest.(check int) "a new constructor: the family alone" 1
          (tele_field "rechecked" r);
        let r = round t (request ~source:(chain ~kind0:"f0 -> type" 300) 3) in
        Alcotest.(check int) "a new kind: every family" 300
          (tele_field "rechecked" r));
  ]

(* --- the incremental engine against a fresh session, over edit sequences -- *)

(** The shipped developments the property edits, each one source. *)
let developments =
  lazy
    (let read path = In_channel.with_open_bin path In_channel.input_all in
     [
       Belr_kits.Surface.full_src;
       Belr_kits.Typed_equal.full_src;
       Belr_kits.Parity.src;
       Belr_kits.Values.src;
       read "../examples/quickstart.blr"
       ^ "\n"
       ^ read "../examples/totality.blr";
     ])

(** A development as its declaration texts, each from the start of its
    first line (leading trivia stays with the first). *)
let chunks (src : string) : string list =
  let decls = Parse.parse_program_tolerant (Diagnostics.sink ()) src in
  let cuts =
    List.filter_map (Serve.decl_cut src) decls |> List.filter (fun c -> c > 0)
  in
  let rec go start = function
    | [] -> [ String.sub src start (String.length src - start) ]
    | c :: rest -> String.sub src start (c - start) :: go c rest
  in
  go 0 cuts

type edit =
  | Insert of int * int  (** a fresh family at a position *)
  | Delete of int
  | Duplicate of int * int
  | Swap of int * int
  | Blank of int * bool  (** blank lines inside (or before) a declaration *)
  | Comment of int * bool
  | Ctor of int  (** copy one constructor line under a new name *)
  | Sort of int  (** touch a refinement sort declaration *)
  | Break of int  (** insert a declaration that does not parse *)
  | Fix  (** remove the broken declarations *)
  | Join of int  (** the next declaration starts on this one's last line *)
  | Split of int  (** a comment between keyword and name *)
  | Reformat of int
      (** whitespace inside a declaration: a new hash, the same payload *)

let show_edit = function
  | Insert (i, k) -> Printf.sprintf "insert q%d at %d" k i
  | Delete i -> Printf.sprintf "delete %d" i
  | Duplicate (i, j) -> Printf.sprintf "duplicate %d to %d" i j
  | Swap (i, j) -> Printf.sprintf "swap %d %d" i j
  | Blank (i, inside) -> Printf.sprintf "blank %d inside=%b" i inside
  | Comment (i, inside) -> Printf.sprintf "comment %d inside=%b" i inside
  | Ctor i -> Printf.sprintf "ctor %d" i
  | Sort i -> Printf.sprintf "sort %d" i
  | Break i -> Printf.sprintf "break %d" i
  | Fix -> "fix"
  | Join i -> Printf.sprintf "join %d" i
  | Split i -> Printf.sprintf "split %d" i
  | Reformat i -> Printf.sprintf "reformat %d" i

let broken = "LF oops : = ;\n"

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(** [s] with [ins] after its first line break (at its end if none). *)
let after_first_line s ins =
  match String.index_opt s '\n' with
  | Some i ->
      String.sub s 0 (i + 1) ^ ins
      ^ String.sub s (i + 1) (String.length s - i - 1)
  | None -> s ^ ins

(** [s] with a blank doubled before its first [" : "], if any. *)
let widen_colon s =
  let n = String.length s in
  let rec find i =
    if i + 3 > n then s
    else if String.sub s i 3 = " : " then
      String.sub s 0 i ^ " " ^ String.sub s i (n - i)
    else find (i + 1)
  in
  find 0

(** [c] with its first one-line constructor (one followed by another)
    copied under a new name. *)
let copy_ctor step c =
  let rec go = function
    | l :: (l2 :: _ as rest)
      when has_prefix "| " l && has_prefix "|" l2
           && not (String.contains l ';') -> (
        match String.index_opt l ':' with
        | Some colon ->
            let name = String.trim (String.sub l 2 (colon - 2)) in
            let typ = String.sub l colon (String.length l - colon) in
            l :: Printf.sprintf "| %s%d %s" name step typ :: rest
        | None -> l :: go rest)
    | l :: rest -> l :: go rest
    | [] -> []
  in
  String.concat "\n" (go (String.split_on_char '\n' c))

(** [e] applied to the declaration texts [cs]; positions wrap around. *)
let apply (step : int) (cs : string list) (e : edit) : string list =
  let n = List.length cs in
  let arr = Array.of_list cs in
  let at i = i mod n in
  let insert i c =
    List.filteri (fun j _ -> j < i) cs @ (c :: List.filteri (fun j _ -> j >= i) cs)
  in
  let map_at i f = List.mapi (fun j c -> if j = at i then f c else c) cs in
  let comment what = Printf.sprintf "%% %s %d\n" what step in
  if n = 0 then cs
  else
    match e with
    | Insert (i, k) ->
        insert (at i) (Printf.sprintf "LF q%d : type =\n| qc%d : q%d;\n" k k k)
    | Delete i -> List.filteri (fun j _ -> j <> at i) cs
    | Duplicate (i, j) -> insert (at j) arr.(at i)
    | Swap (i, j) ->
        let i = at i and j = at j in
        List.mapi
          (fun k c -> if k = i then arr.(j) else if k = j then arr.(i) else c)
          cs
    | Blank (i, inside) ->
        map_at i (fun c ->
            if inside then after_first_line c "\n\n" else "\n\n" ^ c)
    | Comment (i, inside) ->
        map_at i (fun c ->
            if inside then after_first_line c (comment "note")
            else comment "note" ^ c)
    | Ctor i -> map_at i (copy_ctor step)
    | Sort i -> (
        (* the first refinement declaration from [i] on *)
        let is_sort k = has_prefix "LFR" (String.trim arr.(k)) in
        match List.find_opt is_sort (List.init n (fun k -> (at i + k) mod n)) with
        | Some j ->
            List.mapi
              (fun k c -> if k = j then after_first_line c (comment "sort") else c)
              cs
        | None -> cs)
    | Break i -> insert (at i) broken
    | Fix -> List.filter (fun c -> c <> broken) cs
    | Join i ->
        map_at i (fun c ->
            let n = String.length c in
            if n > 0 && c.[n - 1] = '\n' then String.sub c 0 (n - 1) ^ " "
            else c)
    | Split i ->
        map_at i (fun c ->
            if has_prefix "LF " c then
              "LF " ^ comment "kw" ^ String.sub c 3 (String.length c - 3)
            else c)
    | Reformat i -> map_at i widen_colon

let edit_gen =
  QCheck.Gen.(
    let pos = int_bound 40 in
    frequency
      [
        (2, map2 (fun i k -> Insert (i, k)) pos (int_bound 3));
        (2, map (fun i -> Delete i) pos);
        (1, map2 (fun i j -> Duplicate (i, j)) pos pos);
        (2, map2 (fun i j -> Swap (i, j)) pos pos);
        (1, map2 (fun i b -> Blank (i, b)) pos bool);
        (1, map2 (fun i b -> Comment (i, b)) pos bool);
        (2, map (fun i -> Ctor i) pos);
        (1, map (fun i -> Sort i) pos);
        (1, map (fun i -> Break i) pos);
        (1, return Fix);
        (1, map (fun i -> Join i) pos);
        (1, map (fun i -> Split i) pos);
        (2, map (fun i -> Reformat i) pos);
      ])

let session_gen =
  QCheck.Gen.(pair (int_bound 4) (list_size (int_range 1 6) edit_gen))

let show_session (dev, edits) =
  Printf.sprintf "development %d: %s" dev
    (String.concat "; " (List.map show_edit edits))

(** Names two entries declare, survivors whose order changed, or a name
    used before its first declaration: the shared-name, reorder and
    forward-reference rules reach past the reference closure. *)
let beyond_reference olds news =
  let dup es =
    let seen = Hashtbl.create 64 in
    List.exists
      (fun e ->
        List.exists
          (fun x ->
            Hashtbl.mem seen x || (Hashtbl.replace seen x (); false))
          e.Serve.en_names)
      es
  in
  let old_at = Hashtbl.create 64 in
  List.iteri (fun j o -> Hashtbl.replace old_at o.Serve.en_key j) olds;
  let positions =
    List.filter_map (fun e -> Hashtbl.find_opt old_at e.Serve.en_key) news
  in
  let first = Hashtbl.create 64 in
  List.iteri
    (fun i e ->
      List.iter
        (fun x -> if not (Hashtbl.mem first x) then Hashtbl.replace first x i)
        e.Serve.en_names)
    news;
  let forward =
    List.exists Fun.id
      (List.mapi
         (fun i e ->
           List.exists
             (fun r ->
               match Hashtbl.find_opt first r with
               | Some f -> f > i
               | None -> false)
             e.Serve.en_refs)
         news)
  in
  dup olds || dup news || forward || positions <> List.sort compare positions

(** Check a development on a warm session, then put it through [edits]:
    after each, the session's declarations are a full parse of the text
    (locations included), its reply and its [lint]/[total]/[worlds]/
    [modes] replies match a fresh session's (findings as multisets of
    code and location, and exit codes), and its invalidation closure
    stays inside the reference's. *)
let warm_equals_fresh (dev, edits) =
  let t = Serve.create () in
  let cs = ref (chunks (List.nth (Lazy.force developments) dev)) in
  ignore (round t (request ~source:(String.concat "" !cs) 0));
  List.iteri
    (fun step e ->
      cs := apply step !cs e;
      let src = String.concat "" !cs in
      let fail what =
        QCheck.Test.fail_reportf "after %s (step %d): %s@.%s" (show_edit e)
          step what src
      in
      let ses = Serve.find_session t "s" in
      let olds = ses.Serve.ss_entries in
      let full =
        Parse.parse_program_tolerant (Diagnostics.sink ()) ~name:"<serve>" src
      in
      let news = Serve.entry_list src full in
      let reference =
        Belr_lf.Session.with_ ses.Serve.ss_core (fun () ->
            Ref_invalidate.invalid_keys
              (Belr_lf.Session.sign ses.Serve.ss_core)
              olds news)
      in
      let invalid = Serve.invalid_keys olds news in
      let warm = round t (request ~source:src (step + 1)) in
      let ft = Serve.create () in
      let fresh = round ft (request ~source:src 1) in
      let entries = (Serve.find_session t "s").Serve.ss_entries in
      let summary e = (e.Serve.en_key, e.Serve.en_hash, e.Serve.en_refs) in
      if List.map (fun e -> e.Serve.en_decl) entries <> full then
        fail "the spliced parse differs from a full parse";
      if List.map summary entries <> List.map summary news then
        fail "the entries differ from a full parse's";
      if diag_locs warm <> diag_locs fresh then fail "diagnostics differ";
      if J.member "result" warm <> J.member "result" fresh then
        fail
          (Printf.sprintf "summary or failed count differs: warm %s, fresh %s"
             (J.to_string ~compact:true (Option.get (J.member "result" warm)))
             (J.to_string ~compact:true
                (Option.get (J.member "result" fresh))));
      if int_field "exit_code" warm <> int_field "exit_code" fresh then
        fail "exit code differs";
      List.iteri
        (fun k meth ->
          let w = round t (request ~meth (100 * (step + 1) + k)) in
          let f = round ft (request ~meth (2 + k)) in
          let sorted j = List.sort compare (diag_locs j) in
          let show j =
            String.concat " "
              (List.map (fun (code, loc) -> code ^ "@" ^ loc) (sorted j))
          in
          if sorted w <> sorted f then
            fail
              (Printf.sprintf "%s findings differ: warm %s, fresh %s" meth
                 (show w) (show f));
          if int_field "exit_code" w <> int_field "exit_code" f then
            fail (meth ^ ": exit code differs"))
        [ "lint"; "total"; "worlds"; "modes" ];
      if
        (not (beyond_reference olds news))
        && not (Serve.SS.subset invalid reference)
      then
        fail
          (Printf.sprintf "the closure is not inside the reference's: %s"
             (String.concat ", "
                (Serve.SS.elements (Serve.SS.diff invalid reference)))))
    edits;
  true

(** Edit sequences the property once failed on, kept as fixtures: a
    swap re-checked [strengthen] under a new id, and [modes] reported its
    once-per-family W0732 at the first function by id, not in source
    order. *)
let failing_sessions =
  [ (3, [ Insert (21, 1); Ctor 15; Insert (40, 1); Delete 37; Swap (12, 22) ]) ]

let property_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:25
        ~name:
          "edit sequences on the shipped developments: warm replies equal \
           fresh ones"
        (QCheck.make ~print:show_session session_gen)
        warm_equals_fresh;
    ]
  @ [
      test "edit sequences the property once failed on" (fun () ->
          List.iter (fun s -> ignore (warm_equals_fresh s)) failing_sessions);
    ]

let suites =
  [
    ("serve incremental", incremental_tests);
    ("serve robustness", robustness_tests);
    ("serve observability", observability_tests);
    ("serve health gauges", health_gauge_tests);
    ("serve stamp accounting", stamp_tests);
    ("serve splice", splice_tests);
    ("serve cutoff", cutoff_tests);
    ("serve properties", property_tests);
  ]
