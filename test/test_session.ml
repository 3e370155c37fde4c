(** Session isolation (DESIGN.md §S23): each {!Belr_lf.Session.t} owns
    its signature, term-store arenas, hereditary-substitution memo
    tables, and limit counters.  Two interleaved sessions must not
    observe each other, and session work must not perturb the
    process-global batch world. *)

open Belr_support
open Belr_lf
open Belr_parser

let test name f = Alcotest.test_case name `Quick f

let nat_src = "LF nat : type =\n| z : nat\n| s : nat -> nat;"

let exp_src =
  "LF exp : type =\n| lam : (exp -> exp) -> exp\n| app : exp -> exp -> exp;"

(** Check [src] inside [ses], returning the sink. *)
let check_in ses src =
  let sink = Diagnostics.sink () in
  ignore (Driver.check_sources_in ses sink [ ("test.bel", src) ]);
  sink

let has_name ses n = Sign.sym_opt (Session.sign ses) n <> None

let isolation_tests =
  [
    test "two interleaved sessions keep separate signatures" (fun () ->
        let s1 = Session.create () and s2 = Session.create () in
        ignore (check_in s1 nat_src);
        ignore (check_in s2 exp_src);
        (* interleave: extend s1 again after s2 worked *)
        ignore (check_in s1 (nat_src ^ "\n" ^ "LF b : type = | bb : b;"));
        Alcotest.(check bool) "s1 has nat" true (has_name s1 "nat");
        Alcotest.(check bool) "s1 lacks exp" false (has_name s1 "exp");
        Alcotest.(check bool) "s2 has exp" true (has_name s2 "exp");
        Alcotest.(check bool) "s2 lacks nat" false (has_name s2 "nat");
        Alcotest.(check bool) "s2 lacks b" false (has_name s2 "b"));
    test "per-session store arenas: work in one leaves the other empty"
      (fun () ->
        let s1 = Session.create () and s2 = Session.create () in
        ignore (check_in s1 nat_src);
        let interned ses =
          Session.with_ ses (fun () ->
              (Belr_syntax.Lf.store_stats ()).Belr_syntax.Lf.st_interned)
        in
        Alcotest.(check bool) "s1 interned nodes" true (interned s1 > 0);
        Alcotest.(check int) "s2 still pristine" 0 (interned s2));
    test "per-session hsub memo tables don't leak hits across sessions"
      (fun () ->
        let s1 = Session.create () and s2 = Session.create () in
        (* equal.bel's rec functions exercise hereditary substitution *)
        let src = Belr_kits.Surface.signature_src in
        ignore (check_in s1 src);
        let touches ses =
          Session.with_ ses (fun () ->
              let ms = Hsub.memo_stats () in
              ms.Hsub.ms_hits + ms.Hsub.ms_misses)
        in
        Alcotest.(check bool) "s1 memo touched" true (touches s1 > 0);
        Alcotest.(check int) "s2 memo untouched" 0 (touches s2));
    test "per-session equality fast-path counts" (fun () ->
        let s1 = Session.create () and s2 = Session.create () in
        ignore (check_in s1 Belr_kits.Surface.signature_src);
        let compared ses =
          Session.with_ ses (fun () ->
              let p = Belr_syntax.Equal.phys_stats () in
              p.Belr_syntax.Equal.ps_hits + p.Belr_syntax.Equal.ps_misses)
        in
        (* the serve gauges sum these over sessions: a process-wide
           count would be summed once per session *)
        Alcotest.(check bool) "s1 compared terms" true (compared s1 > 0);
        Alcotest.(check int) "s2 compared none" 0 (compared s2));
    test "per-session limit counters: peaks stay with their session"
      (fun () ->
        let s1 = Session.create () and s2 = Session.create () in
        ignore (check_in s1 Belr_kits.Surface.signature_src);
        let peak ses =
          Session.with_ ses (fun () ->
              List.fold_left
                (fun acc (_, p) -> max acc p)
                0 (Limits.peaks ()))
        in
        Alcotest.(check bool) "s1 recursed" true (peak s1 > 0);
        Alcotest.(check int) "s2 peaks zero" 0 (peak s2));
    test "a depth trip in one session does not poison its sibling"
      (fun () ->
        (* force E0901 in s1 with a tiny depth budget; the same source
           then checks cleanly in s2 under the default budget *)
        let s1 = Session.create () and s2 = Session.create () in
        Limits.set_max_depth 1;
        let sink1 =
          Fun.protect
            ~finally:(fun () ->
              Limits.set_max_depth Limits.default_max_depth)
            (fun () -> check_in s1 Belr_kits.Surface.full_src)
        in
        Alcotest.(check bool)
          "s1 tripped" true
          (Diagnostics.error_count sink1 > 0);
        let sink2 = check_in s2 Belr_kits.Surface.signature_src in
        Alcotest.(check int)
          "s2 clean" 0
          (Diagnostics.error_count sink2);
        Alcotest.(check bool) "s2 has aeq" true (has_name s2 "aeq"));
    test "session work leaves the batch world's counters untouched"
      (fun () ->
        Limits.reset ();
        Limits.reset_peaks ();
        let s = Session.create () in
        ignore (check_in s Belr_kits.Surface.signature_src);
        let outer_peak =
          List.fold_left (fun acc (_, p) -> max acc p) 0 (Limits.peaks ())
        in
        Alcotest.(check int) "outer peaks still zero" 0 outer_peak);
    test "Session.reset yields a fresh world on the same handle" (fun () ->
        let s = Session.create () in
        ignore (check_in s nat_src);
        Alcotest.(check bool) "nat present" true (has_name s "nat");
        Session.reset s;
        Alcotest.(check bool) "nat gone" false (has_name s "nat");
        let sink = check_in s exp_src in
        Alcotest.(check int) "recheck clean" 0 (Diagnostics.error_count sink);
        Alcotest.(check bool) "exp present" true (has_name s "exp"));
  ]

let fault_tests =
  [
    test "an armed fault fires once as a structured B0003, then disarms"
      (fun () ->
        let s = Session.create () in
        Fun.protect ~finally:Fault.disarm (fun () ->
            Fault.arm ~site:"store-intern" ~n:1;
            let sink1 = check_in s nat_src in
            let bugs =
              List.filter
                (fun (d : Diagnostics.t) -> d.Diagnostics.d_code = "B0003")
                (Diagnostics.all sink1)
            in
            Alcotest.(check int) "one B0003" 1 (List.length bugs);
            Alcotest.(check int) "exit 2" 2 (Diagnostics.exit_code sink1);
            Alcotest.(check bool) "disarmed" false (Fault.is_armed ()));
        (* the next run on a fresh session succeeds *)
        let s2 = Session.create () in
        let sink2 = check_in s2 nat_src in
        Alcotest.(check int) "fresh run clean" 0
          (Diagnostics.error_count sink2 + Diagnostics.bug_count sink2));
    test "faults only fire at their own site" (fun () ->
        let s = Session.create () in
        Fun.protect ~finally:Fault.disarm (fun () ->
            Fault.arm ~site:"unify" ~n:1;
            let sink = check_in s nat_src in
            (* nat_src never unifies, so the fault must not fire *)
            Alcotest.(check int) "clean" 0
              (Diagnostics.error_count sink + Diagnostics.bug_count sink);
            Alcotest.(check bool) "still armed" true
              (Fault.is_armed ~site:"unify" ())));
  ]

let suites =
  [
    ("session isolation", isolation_tests); ("fault injection", fault_tests);
  ]
