(* Table 4: BugBench programs under Valgrind-like, Mudflap-like and
   SoftBound (store-only / full) checking. *)

type row = {
  program : Attacks.Bugbench.program;
  valgrind : bool;
  mudflap : bool;
  sb_store : bool;
  sb_full : bool;
  runs_clean_unprotected : bool;
}

(* The paper's Table 4. *)
let expected = [
  ("go",        (false, false, false, true));
  ("compress",  (false, true,  true,  true));
  ("polymorph", (true,  true,  true,  true));
  ("gzip",      (true,  true,  true,  true));
]

let run_one (p : Attacks.Bugbench.program) : row =
  let m = Softbound.compile p.Attacks.Bugbench.source in
  let d s = Runner.detected (Runner.verdict_of (Runner.run s m)) in
  let registered name = d (Runner.Scheme (Schemes.get name)) in
  let un = Runner.verdict_of (Runner.run Runner.Unprotected m) in
  {
    program = p;
    valgrind = registered "memcheck-like";
    mudflap = registered "mudflap-like";
    sb_store = d (Runner.Softbound Runner.sb_store_shadow);
    sb_full = d (Runner.Softbound Runner.sb_full_shadow);
    runs_clean_unprotected =
      (match un with Runner.Clean _ -> true | _ -> false);
  }

let run () : row list = List.map run_one Attacks.Bugbench.all

let matches_paper (rows : row list) : bool =
  List.for_all
    (fun r ->
      match List.assoc_opt r.program.Attacks.Bugbench.name expected with
      | Some (v, m, s, f) ->
          r.valgrind = v && r.mudflap = m && r.sb_store = s && r.sb_full = f
      | None -> false)
    rows

let render (rows : row list) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Table 4: BugBench detection efficacy (vs. Valgrind- and Mudflap-style tools)\n";
  Buffer.add_string buf
    (Texttable.render
       ~headers:
         [ "benchmark"; "valgrind"; "mudflap"; "sb-store"; "sb-full";
           "silent when unprotected" ]
       (List.map
          (fun r ->
            [
              r.program.Attacks.Bugbench.name;
              Runner.yes_no r.valgrind;
              Runner.yes_no r.mudflap;
              Runner.yes_no r.sb_store;
              Runner.yes_no r.sb_full;
              Runner.yes_no r.runs_clean_unprotected;
            ])
          rows));
  Buffer.add_string buf
    (Printf.sprintf "paper's detection pattern reproduced: %s\n"
       (Runner.yes_no (matches_paper rows)));
  Buffer.contents buf
