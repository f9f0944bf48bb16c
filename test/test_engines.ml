(* Differential engine suite: the closure-compiled threaded-code engine
   and the pre-decoded dispatch engine are two executions of the same
   semantics, so every observable of a run — outcome (including the
   trap site and bounds in its message), program stdout, the full
   simulated-cost statistics block, cache behavior, residency, heap
   accounting, and per-site observability attribution — must be
   bit-identical between them.  The suite drives both engines over a
   fixed corpus of 200 generated programs (OOB planting on, so a third
   of the corpus traps) plus the hand-written regression programs, under
   both the unprotected and full-checking pipelines. *)

module St = Interp.State
module Vm = Interp.Vm
module Gen = Fuzz.Gen
module Rng = Fuzz.Rng

(* Everything a run exposes, flattened to structurally comparable data.
   [Obs.per_site] and friends pin the attribution machinery: if an
   engine charged a check to the wrong site (or failed to charge it),
   the fingerprints diverge even when totals happen to agree. *)
let fingerprint (r : Vm.result) =
  let s = r.Vm.stats in
  ( ( St.string_of_outcome r.Vm.outcome,
      r.Vm.stdout_text,
      [
        s.St.insts; s.St.cycles; s.St.mem_reads; s.St.mem_writes;
        s.St.ptr_mem_ops; s.St.checks; s.St.meta_loads; s.St.meta_stores;
        s.St.ht_probes; s.St.ht_resizes; s.St.calls; s.St.max_frames;
        r.Vm.cache_hits; r.Vm.cache_misses; r.Vm.resident_bytes;
        r.Vm.heap_peak; r.Vm.heap_live;
      ] ),
    ( Obs.per_site r.Vm.obs,
      Obs.wrapper_stats r.Vm.obs,
      Obs.seg_stats r.Vm.obs,
      Obs.attribution r.Vm.obs ) )

let run_both ?(base = St.default_config) ?opts m =
  let run engine =
    let cfg = { base with St.engine; max_steps = 3_000_000 } in
    match opts with
    | None -> Softbound.run_unprotected ~cfg m
    | Some opts -> Softbound.run_protected ~opts ~cfg m
  in
  (run St.Eng_decode, run St.Eng_closure)

let same label (d, c) =
  let fd = fingerprint d and fc = fingerprint c in
  if fd <> fc then
    Alcotest.failf "%s: engines diverge\n  decode:  %s | %S\n  closure: %s | %S"
      label
      (St.string_of_outcome d.Vm.outcome)
      d.Vm.stdout_text
      (St.string_of_outcome c.Vm.outcome)
      c.Vm.stdout_text

let check_same label ?opts m = same label (run_both ?opts m)

(* hand-written programs covering shapes the generator rarely stresses:
   setjmp/longjmp unwinding, function pointers, varargs printf, and a
   guaranteed bounds trap whose site identity both engines must agree
   on *)
let regressions =
  [
    ( "oob trap site",
      "int main(void) { long a[4]; long i; for (i = 0; i <= 4; i = i + 1) \
       a[i] = i; printf(\"%ld\\n\", a[0]); return 0; }" );
    ( "function pointers",
      "long add(long a, long b) { return a + b; }\n\
       long sub(long a, long b) { return a - b; }\n\
       int main(void) { long (*f)(long, long) = add; long s = f(3, 4);\n\
       f = sub; s += f(10, 1); printf(\"%ld\\n\", s); return 0; }" );
    ( "setjmp unwinding",
      "#include <setjmp.h>\n\
       jmp_buf env;\n\
       void deep(int n) { if (n == 0) longjmp(env, 7); deep(n - 1); }\n\
       int main(void) { int r = setjmp(env);\n\
       if (r == 0) { deep(5); return 1; }\n\
       printf(\"%d\\n\", r); return 0; }" );
    ( "heap churn",
      "int main(void) { long i; long *p; long s = 0;\n\
       for (i = 1; i < 40; i = i + 1) { p = malloc(8 * i);\n\
       p[i - 1] = i; s += p[i - 1]; if (i % 3 == 0) free(p); }\n\
       printf(\"%ld\\n\", s); return 0; }" );
  ]

(* test_softbound's hash-table growth program, reshaped so the table
   both probes and resizes: pointer slots 64 bytes apart collide in the
   small table, and the read-back of [tab[8]] in the fill loop replays
   a lookup cached in a per-site cell before each rehash against the
   grown table *)
let resizing_hash_table =
  "long *tab[4096]; \
   int main(void) { long i; long acc = 0; \
   for (i = 0; i < 512; i = i + 1) { \
   tab[8 * i] = (long *)malloc(2 * sizeof(long)); \
   *tab[8 * i] = i; if (i > 0) acc += *tab[8]; } \
   for (i = 0; i < 512; i = i + 1) acc += *tab[8 * i]; \
   printf(\"%ld\\n\", acc); return 0; }"

let fuzz_corpus_size = 200

let suite =
  [
    Alcotest.test_case "regressions: decode = closure (unprotected + full)"
      `Quick (fun () ->
        List.iter
          (fun (name, src) ->
            let m = Softbound.compile src in
            check_same (name ^ " [unprot]") m;
            check_same (name ^ " [full]") ~opts:Softbound.Config.default m)
          regressions);
    Alcotest.test_case "hash table resizing mid-run: decode = closure" `Quick
      (fun () ->
        let ((d, _) as runs) =
          run_both
            ~base:{ St.default_config with St.ht_entries_init = 64 }
            ~opts:
              {
                Softbound.Config.default with
                facility = Softbound.Config.Hash_table;
              }
            (Softbound.compile resizing_hash_table)
        in
        same "resizing hash table" runs;
        Alcotest.(check string) "output" "131327\n" d.Vm.stdout_text;
        (* pinned: a cached lookup must account exactly like a fresh
           probe, so these only move with the hash-table cost model *)
        Alcotest.(check (list int))
          "cycles, probes, resizes" [ 139245; 3744; 4 ]
          [ d.Vm.stats.St.cycles; d.Vm.stats.St.ht_probes;
            d.Vm.stats.St.ht_resizes ]);
    Alcotest.test_case
      (Printf.sprintf
         "fuzz corpus (%d programs, oob on): decode = closure on outcome, \
          stdout, stats, cache, residency, attribution"
         fuzz_corpus_size)
      `Quick
      (fun () ->
        let root = Rng.create 0xe7e1 in
        for i = 0 to fuzz_corpus_size - 1 do
          let r = Rng.split root i in
          let case = Gen.generate r ~oob:true in
          let src = Cminus.Pretty.program_string case.Gen.prog in
          let m = Softbound.compile src in
          let label = Printf.sprintf "fuzz #%d (%s)" i src in
          check_same (label ^ " [unprot]") m;
          check_same (label ^ " [full]") ~opts:Softbound.Config.default m
        done);
  ]
