(* The run matrix and its artifact projections: a cell is the run it
   summarizes, every cell is simulated once, the generated artifacts
   pass bench-check's schema and cross-artifact checks, and the
   indented JSON printer round-trips them. *)

module M = Harness.Matrix
module S = Interp.State

let tc name f = Alcotest.test_case name `Quick f

(** One quick matrix shared by every suite that projects over it, so
    its cells are simulated once per test run. *)
let quick = lazy (M.create ~quick:true ())

let quick_artifacts = lazy (Harness.Bench_check.simulated (Lazy.force quick))

let treeadd = Option.get (Workloads.find "treeadd")

let suite =
  [
    tc "a cell equals a direct run of its configuration" (fun () ->
        let m = Harness.Runner.compile_workload treeadd in
        List.iter
          (fun (label, scheme) ->
            let r = Harness.Runner.run ~argv:treeadd.quick_args scheme m in
            let c = M.cell (Lazy.force quick) treeadd label in
            let k = Harness.Profile.site_kind_cycles r.Interp.Vm.obs in
            let check what want got =
              Alcotest.(check int) (label ^ " " ^ what) want got
            in
            check "cycles" r.stats.S.cycles c.M.cycles;
            check "checks" r.stats.S.checks c.M.checks;
            check "check cycles" (k Obs.KCheck + k Obs.KCheckFptr) c.M.check;
            check "metadata cycles"
              (k Obs.KMetaLoad + k Obs.KMetaStore)
              c.M.meta;
            check "wrapper cycles"
              (Obs.wrapper_cycles r.Interp.Vm.obs)
              c.M.wrapper)
          [
            ("unprotected", Harness.Runner.Unprotected);
            ( "shadow-full-elim",
              Harness.Runner.Softbound Harness.Runner.sb_full_shadow );
            ( "hash-store-noelim",
              Harness.Runner.Softbound
                (M.without_elim Harness.Runner.sb_store_hash) );
            ("mscc", Harness.Runner.Scheme (Schemes.get "mscc"));
          ]);
    tc "seven projections simulate each (kernel, config) cell once"
      (fun () ->
        let m = Lazy.force quick in
        let project () =
          let open Harness in
          ignore (Exp_fig1.run m);
          ignore (Exp_fig2.run m);
          ignore (Exp_mscc.run m);
          ignore (Lazy.force quick_artifacts)
        in
        project ();
        (* unprotected, 4 SoftBound configurations x 3 elimination
           variants, and the 7 registry schemes *)
        let cells = List.length Workloads.all * 20 in
        Alcotest.(check int) "one simulation per cell" cells (M.simulations m);
        project ();
        Alcotest.(check int) "projecting again simulates nothing" cells
          (M.simulations m));
    tc "generated artifacts pass the schema and cross-artifact checks"
      (fun () ->
        let module B = Harness.Bench_check in
        B.errs := [];
        B.check_docs (Lazy.force quick_artifacts);
        Alcotest.(check (list string)) "no findings" [] !B.errs);
    tc "pretty printer round-trips every generated artifact" (fun () ->
        List.iter
          (fun (file, v) ->
            if Harness.Json.(parse (pretty v)) <> v then
              Alcotest.failf "%s does not round-trip" file)
          (Lazy.force quick_artifacts));
    tc "pretty printer: scalar containers on one line" (fun () ->
        let open Harness.Json in
        Alcotest.(check string) "layout"
          "{\n  \"a\": { \"on\": 1, \"off\": 0.1 },\n  \"b\": [\n    [],\n    [ true, \"x\" ]\n  ]\n}"
          (pretty
             (Obj
                [
                  ("a", Obj [ ("on", Num 1.0); ("off", ratio 0.1) ]);
                  ("b", List [ List []; List [ Bool true; Str "x" ] ]);
                ])));
    tc "verify-artifacts names the first differing JSON path" (fun () ->
        let open Harness.Json in
        let doc on = Obj [ ("k", List [ Obj [ ("on", Num on); ("off", Num 2.) ] ]) ] in
        Alcotest.(check (option string)) "equal trees" None
          (Harness.Bench_check.first_diff "$" (doc 1.) (doc 1.));
        Alcotest.(check (option string)) "one cell"
          (Some "$.k[0].on: committed 1, generated 3")
          (Harness.Bench_check.first_diff "$" (doc 1.) (doc 3.)));
  ]
