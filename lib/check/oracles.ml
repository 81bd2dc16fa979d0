module S = Ivc_grid.Stencil
module O = Oracle
module Ff = Ivc_kernel.Ff
module Tiles = Ivc_kernel.Tiles
module Par = Ivc_kernel.Par_sweep
module Ref = Ivc.Greedy.Reference
module Cert = Ivc_resilient.Cert

let weights inst = (inst : S.t).w

let rebuild inst w =
  match (inst : S.t).dims with
  | S.D2 (x, y) -> S.make2 ~x ~y w
  | S.D3 (x, y, z) -> S.make3 ~x ~y ~z w

let first_mismatch a b =
  let i = ref (-1) in
  (try
     for v = 0 to Array.length a - 1 do
       if a.(v) <> b.(v) then begin
         i := v;
         raise Exit
       end
     done
   with Exit -> ());
  !i

let certify inst ~who starts =
  match Cert.check inst starts with
  | Ok _ -> O.Pass
  | Error e -> O.failf "%s: %s" who (Cert.to_string e)

(* ---- cert ------------------------------------------------------------ *)

let cert =
  {
    O.name = "cert";
    description =
      "every heuristic's coloring passes the independent certificate gate";
    applies = (fun _ -> true);
    run =
      (fun inst ->
        O.all_of
          (List.map
             (fun (a : Ivc.Algo.t) () ->
               let starts = a.Ivc.Algo.run inst in
               match Cert.check inst starts with
               | Error e ->
                   O.failf "%s: %s" a.Ivc.Algo.name (Cert.to_string e)
               | Ok mc ->
                   let mc' =
                     Ivc.Coloring.maxcolor ~w:(weights inst) starts
                   in
                   O.check (mc = mc')
                     "%s: cert maxcolor %d <> computed maxcolor %d"
                     a.Ivc.Algo.name mc mc')
             Ivc.Algo.all));
  }

(* ---- kernel-diff ------------------------------------------------------ *)

(* The shuffled order is derived from the instance's own hash, so a
   replayed instance exercises the same order without carrying any
   extra state in the repro file. *)
let diff_orders inst =
  let n = S.n_vertices inst in
  let r = Gen.rng ~seed:(Gen.hash inst) ~stream:7 in
  [
    ("row-major", S.row_major_order inst);
    ("z-order", S.zorder inst);
    ("largest-first", Ivc.Order.largest_first inst);
    ("shuffled", Gen.permutation r n);
  ]

let kernel_diff_run ?corrupt inst =
  O.all_of
    (List.map
       (fun (oname, order) () ->
         let k = Ff.color_in_order inst order in
         (* the optional corruption mutates this scratch copy only;
            nothing downstream ever sees it *)
         (match corrupt with Some f -> f inst k | None -> ());
         let r = Ref.color_in_order inst order in
         if k <> r then
           let v = first_mismatch r k in
           O.failf "order %s: kernel start %d at vertex %d, reference %d"
             oname k.(v) v r.(v)
         else certify inst ~who:("kernel on " ^ oname) k)
       (diff_orders inst))

let kernel_diff =
  {
    O.name = "kernel-diff";
    description =
      "allocation-free kernel = Greedy.Reference, exact starts, on four \
       orders";
    applies = (fun _ -> true);
    run = (fun inst -> kernel_diff_run inst);
  }

(* Deliberate bug for demonstrations: decrement the largest positive
   start in a scratch copy of the kernel output. Any instance with two
   adjacent positive-weight cells triggers it. *)
let corrupt_scratch _inst k =
  let v = ref (-1) in
  Array.iteri (fun i s -> if s > 0 && (!v < 0 || s > k.(!v)) then v := i) k;
  if !v >= 0 then k.(!v) <- k.(!v) - 1

let kernel_diff_buggy =
  {
    O.name = "kernel-diff!bug";
    description =
      "kernel-diff with a deliberate off-by-one injected into a scratch \
       copy of the kernel output (demonstration/testing only)";
    applies = (fun _ -> true);
    run = (fun inst -> kernel_diff_run ~corrupt:corrupt_scratch inst);
  }

(* ---- tiled-diff -------------------------------------------------------- *)

let tiled_diff =
  {
    O.name = "tiled-diff";
    description = "Z-order tiled sweep = reference on tile_order";
    applies = (fun _ -> true);
    run =
      (fun inst ->
        O.all_of
          (List.map
             (fun tile () ->
               let order = Tiles.tile_order ?tile inst in
               let tiled = Tiles.color ?tile inst in
               let r = Ref.color_in_order inst order in
               if tiled <> r then
                 let v = first_mismatch r tiled in
                 O.failf
                   "tile %s: tiled start %d at vertex %d, reference %d"
                   (match tile with
                   | Some t -> string_of_int t
                   | None -> "default")
                   tiled.(v) v r.(v)
               else certify inst ~who:"tiled sweep" tiled)
             [ Some 2; Some 3; None ]));
  }

(* ---- par-diff ----------------------------------------------------------- *)

let par_diff =
  {
    O.name = "par-diff";
    description =
      "deterministic parallel sweep = reference on equivalent_order, any \
       worker count";
    applies = (fun _ -> true);
    run =
      (fun inst ->
        let n = S.n_vertices inst in
        let order = Par.equivalent_order ~tile:2 inst in
        let expected = Ref.color_in_order inst order in
        O.all_of
          (List.map
             (fun workers () ->
               let par, stats = Par.color ~workers ~tile:2 inst in
               O.both
                 (O.check
                    (stats.Par.interior + stats.Par.seam = n)
                    "workers %d: interior %d + seam %d <> n %d" workers
                    stats.Par.interior stats.Par.seam n)
                 (fun () ->
                   if par <> expected then
                     let v = first_mismatch expected par in
                     O.failf
                       "workers %d: parallel start %d at vertex %d, \
                        reference %d"
                       workers par.(v) v expected.(v)
                   else certify inst ~who:"parallel sweep" par))
             [ 1; 2 ]));
  }

(* ---- bound-sandwich ------------------------------------------------------- *)

(* Node budget sized so the exact stage stays sub-second on the <= 36
   vertex instances it is gated to. *)
let exact_budget = 20_000
let exact_max_n = 36

let bound_sandwich =
  {
    O.name = "bound-sandwich";
    description =
      "lower bounds <= every heuristic; family exact optima and (small \
       instances) the exact solver bracket the heuristics";
    applies = (fun inst -> S.n_vertices inst <= 400);
    run =
      (fun inst ->
        let lb = Ivc.Bounds.combined inst in
        let heur = Ivc.Algo.run_all inst in
        let best =
          List.fold_left (fun acc (_, _, mc) -> min acc mc) max_int heur
        in
        let heuristics_above_lb () =
          O.all_of
            (List.map
               (fun (name, _, mc) () ->
                 O.check (mc >= lb) "%s maxcolor %d below lower bound %d"
                   name mc lb)
               heur)
        in
        let family_exact () =
          match (inst : S.t).dims with
          | S.D2 (1, _) | S.D2 (_, 1) ->
              (* a 1xN (or Nx1) grid's conflict graph is the path *)
              let starts, opt = Ivc.Special.color_chain (weights inst) in
              O.all_of
                [
                  (fun () -> certify inst ~who:"chain optimum" starts);
                  (fun () ->
                    O.check (lb <= opt)
                      "chain optimum %d below lower bound %d" opt lb);
                  (fun () ->
                    O.check (opt <= best)
                      "best heuristic %d beats the chain optimum %d" best
                      opt);
                ]
          | S.D2 (2, 2) | S.D3 (2, 2, 2) ->
              let starts, opt = Ivc.Special.color_clique ~w:(weights inst) in
              O.all_of
                [
                  (fun () -> certify inst ~who:"clique optimum" starts);
                  (fun () ->
                    O.check (lb <= opt)
                      "clique optimum %d below lower bound %d" opt lb);
                  (fun () ->
                    O.check (opt <= best)
                      "best heuristic %d beats the clique optimum %d" best
                      opt);
                ]
          | _ -> O.Pass
        in
        let exact_sandwich () =
          if S.n_vertices inst > exact_max_n then O.Pass
          else
            let o =
              Ivc_exact.Optimize.solve ~budget:exact_budget
                ~time_limit_s:2.0 inst
            in
            let elb = o.Ivc_exact.Optimize.lower_bound
            and eub = o.Ivc_exact.Optimize.upper_bound in
            O.all_of
              [
                (fun () ->
                  O.check (elb <= eub) "exact bounds crossed: %d > %d" elb
                    eub);
                (fun () ->
                  match Cert.check inst o.Ivc_exact.Optimize.starts with
                  | Error e ->
                      O.failf "exact witness: %s" (Cert.to_string e)
                  | Ok mc ->
                      O.check (mc = eub)
                        "exact witness maxcolor %d <> upper bound %d" mc
                        eub);
                (fun () ->
                  O.check (elb <= best)
                    "exact lower bound %d above best heuristic %d" elb best);
                (fun () ->
                  if not o.Ivc_exact.Optimize.proven_optimal then O.Pass
                  else
                    O.all_of
                      [
                        (fun () ->
                          O.check (lb <= eub)
                            "combined lower bound %d above the optimum %d"
                            lb eub);
                        (fun () ->
                          O.check (eub <= best)
                            "best heuristic %d beats the proven optimum %d"
                            best eub);
                      ]);
              ]
        in
        O.all_of [ heuristics_above_lb; family_exact; exact_sandwich ]);
  }

(* ---- bound-monotone -------------------------------------------------------- *)

let bound_monotone =
  {
    O.name = "bound-monotone";
    description =
      "all lower/upper bounds are monotone under weight increases";
    applies = (fun _ -> true);
    run =
      (fun inst ->
        let n = S.n_vertices inst in
        if n = 0 then O.Pass
        else begin
          let r = Gen.rng ~seed:(Gen.hash inst) ~stream:11 in
          let w' = Array.copy (weights inst) in
          for _ = 1 to 1 + (n / 4) do
            let v = Gen.int r n in
            w'.(v) <- w'.(v) + 1 + Gen.int r 5
          done;
          let inst' = rebuild inst w' in
          O.all_of
            (List.map
               (fun (name, f) () ->
                 let before = f inst and after = f inst' in
                 O.check (after >= before)
                   "%s decreased from %d to %d under a weight increase" name
                   before after)
               [
                 ("weight_lb", Ivc.Bounds.weight_lb);
                 ("pair_lb", Ivc.Bounds.pair_lb);
                 ("clique_lb", Ivc.Bounds.clique_lb);
                 ("combined", fun i -> Ivc.Bounds.combined i);
                 ("greedy_ub", Ivc.Bounds.greedy_ub);
                 ("total_ub", Ivc.Bounds.total_ub);
               ])
        end);
  }

(* ---- metamorphic ------------------------------------------------------------ *)

let metamorphic =
  {
    O.name = "metamorphic";
    description =
      "grid automorphisms preserve bounds and permute first-fit colorings \
       exactly";
    applies = (fun _ -> true);
    run =
      (fun inst ->
        let n = S.n_vertices inst in
        let shuffle = Gen.permutation (Gen.rng ~seed:(Gen.hash inst) ~stream:13) n in
        let orders =
          [ ("row-major", S.row_major_order inst); ("shuffled", shuffle) ]
        in
        O.all_of
          (List.map
             (fun (m : Morph.t) () ->
               let inst' = m.Morph.apply inst in
               let map = m.Morph.map inst in
               let bounds_invariant () =
                 O.all_of
                   (List.map
                      (fun (name, f) () ->
                        let before = f inst and after = f inst' in
                        O.check (before = after)
                          "%s: %s changed %d -> %d under an automorphism"
                          m.Morph.name name before after)
                      [
                        ("weight_lb", Ivc.Bounds.weight_lb);
                        ("pair_lb", Ivc.Bounds.pair_lb);
                        ("clique_lb", Ivc.Bounds.clique_lb);
                        ("combined", fun i -> Ivc.Bounds.combined i);
                        ("greedy_ub", Ivc.Bounds.greedy_ub);
                      ])
               in
               let first_fit_equivariant () =
                 O.all_of
                   (List.map
                      (fun (oname, order) () ->
                        let order' = Array.map map order in
                        let starts = Ff.color_in_order inst order in
                        let starts' = Ff.color_in_order inst' order' in
                        let bad = ref (-1) in
                        (try
                           for v = 0 to n - 1 do
                             if starts'.(map v) <> starts.(v) then begin
                               bad := v;
                               raise Exit
                             end
                           done
                         with Exit -> ());
                        if !bad < 0 then O.Pass
                        else
                          O.failf
                            "%s on %s: vertex %d got %d, its image got %d"
                            m.Morph.name oname !bad starts.(!bad)
                            starts'.(map !bad))
                      orders)
               in
               O.all_of [ bounds_invariant; first_fit_equivariant ])
             (Morph.applicable inst)));
  }

(* ---- portfolio --------------------------------------------------------------- *)

let portfolio =
  {
    O.name = "portfolio";
    description =
      "the resilient driver's outcome certifies with ordered bounds, \
       proven exactly when its lower bound meets its maxcolor";
    applies = (fun inst -> S.n_vertices inst <= 64);
    run =
      (fun inst ->
        match Ivc_resilient.Driver.solve ~budget:5_000 inst with
        | Error e -> O.failf "driver rejected: %s" (Cert.to_string e)
        | Ok o ->
            let mc = o.Ivc_resilient.Driver.maxcolor
            and lb = o.Ivc_resilient.Driver.lower_bound in
            O.all_of
              [
                (fun () ->
                  match Cert.check inst o.Ivc_resilient.Driver.starts with
                  | Error e -> O.failf "outcome: %s" (Cert.to_string e)
                  | Ok mc' ->
                      O.check (mc' = mc)
                        "outcome maxcolor %d <> certified %d" mc mc');
                (fun () ->
                  O.check (lb <= mc) "lower bound %d above maxcolor %d" lb
                    mc);
                (fun () ->
                  O.check
                    ((not o.Ivc_resilient.Driver.proven_optimal) || lb = mc)
                    "proven optimal but lb %d <> maxcolor %d" lb mc);
                (fun () ->
                  O.check
                    (o.Ivc_resilient.Driver.proven_optimal || lb < mc)
                    "lb %d meets maxcolor %d but the answer is not proven" lb
                    mc);
              ]);
  }

(* ---- crash-resume ------------------------------------------------------------- *)

(* Kill the CP search at fault-plan-chosen checkpoint boundaries,
   resume from the snapshot on disk, repeat while the plan keeps
   killing, and require the survivor to reach the same certified
   result as an uninterrupted run with the same cumulative budget.
   [Autosave.on_save] fires after the atomic install completes, so
   raising from it is exactly a kill -9 at a checkpoint boundary: the
   snapshot the next attempt loads is the one written the instant of
   death. *)
module Snapshot = Ivc_persist.Snapshot
module Faults = Ivc_resilient.Faults

exception Killed

(* Node budget of each CP probe. A bracket takes about log2(ub - lb)
   probes, so the uninterrupted baseline plus every resumed attempt
   stay cheap. *)
let crash_cp_budget = 5_000

(* Attempt [a] is killed when the plan crashes task [a], at a save
   ordinal drawn from [r]; after [max_kills] eligible attempts the
   plan stops killing, so the loop terminates deterministically. Every
   attempt checkpoints at every save point, the one the plan spares
   too, so the survivor is a solve with checkpoints on held to the
   uninterrupted run without them. Every reloaded bracket must lie
   inside the one before; returns the survivor's result and the last
   checkpoint. *)
let kill_resume inst ~plan ~r ~path =
  let module C = Ivc_exact.Cp in
  let max_kills = 8 in
  let rec attempt a prev resume =
    let kill_at =
      if
        a < max_kills
        && Faults.decide plan ~task:a ~attempt:0 = Some Faults.Crash
      then Some (1 + Gen.int r 32)
      else None
    in
    let on_save s =
      match kill_at with Some k when s >= k -> raise Killed | _ -> ()
    in
    let autosave = Ivc_persist.Autosave.make ~every_s:0.0 ~on_save path in
    match C.optimize ~budget:crash_cp_budget ~autosave ?resume inst with
    | result -> Ok (result, prev)
    | exception Killed -> (
        match Result.bind (Snapshot.load path) (C.decode_checkpoint ~inst) with
        | Error e ->
            Error
              ("snapshot unusable after kill: " ^ Snapshot.error_to_string e)
        | Ok c -> (
            match prev with
            | Some (p : C.checkpoint) when c.C.lo < p.C.lo || c.C.hi > p.C.hi
              ->
                Error
                  (Printf.sprintf "cp bracket loosened: [%d, %d] -> [%d, %d]"
                     p.C.lo p.C.hi c.C.lo c.C.hi)
            | _ -> attempt (a + 1) (Some c) (Some c)))
  in
  attempt 0 None None

let crash_resume =
  {
    O.name = "crash-resume";
    description =
      "CP solves killed at fault-plan-chosen checkpoint boundaries \
       resume from the snapshot to the same certified result as an \
       uninterrupted run";
    applies =
      (fun inst ->
        let n = S.n_vertices inst in
        n > 0 && n <= exact_max_n);
    run =
      (fun inst ->
        let module C = Ivc_exact.Cp in
        let path = Filename.temp_file "ivc-crash" ".snap" in
        let cleanup () =
          List.iter
            (fun p -> try Sys.remove p with Sys_error _ -> ())
            [ path; path ^ ".tmp" ]
        in
        Fun.protect ~finally:cleanup @@ fun () ->
        let h = Gen.hash inst in
        let plan = Faults.parse (Printf.sprintf "seed=%d,crash=0.6" h) in
        let baseline = C.optimize ~budget:crash_cp_budget inst in
        match kill_resume inst ~plan ~r:(Gen.rng ~seed:h ~stream:18) ~path with
        | Error m -> O.Fail m
        | Ok (result, last) ->
            let bracket = function
              | C.Optimal (v, s) -> (v, v, s)
              | C.Bounds (lo, hi, s) -> (lo, hi, s)
            in
            let lo, hi, starts = bracket result in
            let blo, bhi, _ = bracket baseline in
            O.all_of
              [
                (fun () -> certify inst ~who:"resumed cp" starts);
                (fun () ->
                  O.check (result = baseline)
                    "resumed cp bracket [%d, %d] <> uninterrupted [%d, %d] \
                     (or a different witness)"
                    lo hi blo bhi);
                (fun () ->
                  match last with
                  | Some (c : C.checkpoint) ->
                      O.check
                        (c.C.lo <= lo && hi <= c.C.hi)
                        "final bracket [%d, %d] outside the last pre-kill \
                         bracket [%d, %d]"
                        lo hi c.C.lo c.C.hi
                  | None -> O.Pass);
              ]);
  }

(* ---- chaos --------------------------------------------------------------------- *)

(* Serve the instance through a seeded fault-injecting proxy (delays,
   torn frames, resets, stalls, corrupted bytes — Netfaults, plan
   derived from the instance hash) with the retrying verified client,
   and require the end-to-end contract to survive: every completed
   Solution certifies at its claimed maxcolor, the server never
   answers Internal or Cert_failed, and once the chaos burst is over
   the daemon drains back to a ready, correctly-serving state. Typed
   transport failures and sheds are allowed — chaos may eat requests,
   it must never falsify answers. *)
module Srv = Ivc_server.Server
module Cl = Ivc_server.Client
module Net = Ivc_server.Netfaults
module P = Ivc_server.Proto

let chaos_max_n = 200

let chaos =
  {
    O.name = "chaos";
    description =
      "under a seeded netfault plan (delays, torn frames, resets, \
       stalls, corruption) every completed response is certified, none \
       silently corrupted, and the server drains back to ready";
    applies =
      (fun inst ->
        let n = S.n_vertices inst in
        n > 0 && n <= chaos_max_n);
    run =
      (fun inst ->
        let up = Filename.temp_file "ivc-chaos-up" ".sock" in
        let front = Filename.temp_file "ivc-chaos" ".sock" in
        let cfg =
          {
            (Srv.default_config (Srv.Unix_sock up)) with
            Srv.workers = 1;
            queue_capacity = 4;
            cache_capacity = 2;
            default_deadline_s = 1.0;
            idle_timeout_s = 2.0;
            io_timeout_s = 1.0;
          }
        in
        let srv = Srv.start cfg in
        let h = Gen.hash inst in
        let plan =
          Net.parse
            (Printf.sprintf
               "seed=%d,delay=0.15:0.002,tear=0.15,reset=0.1,stall=0.05:0.05,dup=0.1"
               h)
        in
        let proxy =
          Net.start ~listen:(Srv.Unix_sock front)
            ~upstream:(Srv.Unix_sock up) ~plan
        in
        Fun.protect
          ~finally:(fun () ->
            Net.stop proxy;
            Srv.stop srv;
            List.iter
              (fun p -> try Sys.remove p with Sys_error _ -> ())
              [ up; front ])
        @@ fun () ->
        let opts =
          {
            P.default_solve_options with
            P.deadline_s = Some 1.0;
            budget = Some 50;
            improve = false;
          }
        in
        let violation = ref None in
        let note m = if !violation = None then violation := Some m in
        for i = 0 to 2 do
          let retry =
            {
              Cl.default_retry with
              Cl.attempts = 3;
              base_delay_s = 0.01;
              max_delay_s = 0.05;
              seed = h + i;
              connect_timeout_s = 2.0;
              request_timeout_s = Some 2.0;
            }
          in
          match
            Cl.solve_verified ~retry ~addr:(Srv.Unix_sock front) ~opts inst
          with
          | Ok (P.Solution s) -> (
              (* solve_verified already certified; re-check with the
                 oracle's own gate so a verification bug in the client
                 cannot hide a corrupted answer *)
              match Cert.check inst s.P.starts with
              | Ok mc when mc = s.P.maxcolor -> ()
              | Ok mc ->
                  note
                    (Printf.sprintf
                       "request %d: claimed maxcolor %d, certified %d" i
                       s.P.maxcolor mc)
              | Error e ->
                  note
                    (Printf.sprintf "request %d: uncertified solution: %s" i
                       (Cert.to_string e)))
          | Ok (P.Shed _) ->
              (* saturation is an honest answer, chaotic or not *)
              ()
          | Ok (P.Error { code = (P.Internal | P.Cert_failed) as c; message })
            ->
              note
                (Printf.sprintf "request %d: server failed: %s (%s)" i
                   (P.error_code_to_string c)
                   message)
          | Ok (P.Error _) ->
              (* Bad_frame / Bad_request / Conn_timeout: the plan
                 damaged or stalled the request in flight — lost, not
                 falsified *)
              ()
          | Ok _ -> note (Printf.sprintf "request %d: unexpected response" i)
          | Error _ ->
              (* typed client failure after every retry: the plan is
                 allowed to eat requests entirely *)
              ()
        done;
        (* recovery: bypass the proxy and require the daemon to drain
           back to a ready state that still serves certified answers *)
        let t0 = Ivc_obs.now_ns () in
        let rec drained () =
          if Ivc_obs.elapsed_s ~since:t0 > 8.0 then
            Error "server did not drain within 8s of the chaos burst"
          else
            match Cl.connect ~timeout_s:2.0 (Srv.Unix_sock up) with
            | Error e -> Error ("health connect: " ^ Cl.error_to_string e)
            | Ok c -> (
                let r = Cl.health ~timeout_s:2.0 c in
                Cl.close c;
                match r with
                | Error e -> Error ("health: " ^ Cl.error_to_string e)
                | Ok hl ->
                    if hl.P.ready && hl.P.queue_depth = 0 && hl.P.running = 0
                    then Ok ()
                    else begin
                      Unix.sleepf 0.05;
                      drained ()
                    end)
        in
        match !violation with
        | Some m -> O.Fail m
        | None -> (
            match drained () with
            | Error m -> O.Fail m
            | Ok () -> (
                match Cl.connect ~timeout_s:2.0 (Srv.Unix_sock up) with
                | Error e ->
                    O.Fail ("direct connect after chaos: " ^ Cl.error_to_string e)
                | Ok c -> (
                    Fun.protect ~finally:(fun () -> Cl.close c) @@ fun () ->
                    match Cl.solve ~timeout_s:5.0 c ~opts inst with
                    | Ok (P.Solution s) ->
                        certify inst ~who:"post-chaos direct solve" s.P.starts
                    | Ok _ -> O.Fail "direct solve after chaos was not served"
                    | Error e ->
                        O.Fail
                          ("direct solve after chaos: " ^ Cl.error_to_string e)))));
  }

(* ---- ooc ----------------------------------------------------------------------- *)

(* Out-of-core differential: stream the instance through the spill-based
   tiled solve and require bit-identical starts to the in-core Z-order
   tiled sweep, a certified streaming verify, and a full resume (the
   second run recomputes nothing). The tile edge is pinned to 2 so even
   the fuzzer's small instances decompose into many tiles with real
   spill and halo traffic. *)
module Ooc = Ivc_ooc.Ooc
module Osrc = Ivc_ooc.Source

let with_spill_dir f =
  let dir = Filename.temp_file "ivc-ooc" ".spill" in
  Sys.remove dir;
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter
        (fun name ->
          try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ()
    end
  in
  Fun.protect ~finally:cleanup (fun () -> f dir)

let ooc_max_n = 4096

let ooc =
  {
    O.name = "ooc";
    description =
      "out-of-core tiled solve = in-core tiled sweep exactly; streaming \
       verify certifies; a second run resumes every tile";
    applies =
      (fun inst ->
        let n = S.n_vertices inst in
        n > 0 && n <= ooc_max_n);
    run =
      (fun inst ->
        with_spill_dir @@ fun dir ->
        let src = Osrc.of_stencil inst in
        let tile = 2 in
        match Ooc.solve ~tile ~dir src with
        | Error e -> O.failf "solve: %s" (Ooc.error_to_string e)
        | Ok st -> (
            let expected = Tiles.color ~tile inst in
            match Ooc.read_starts ~tile ~dir src with
            | Error e -> O.failf "read_starts: %s" (Ooc.error_to_string e)
            | Ok starts ->
                if starts <> expected then
                  let v = first_mismatch expected starts in
                  O.failf
                    "out-of-core start %d at vertex %d, in-core tiled %d"
                    starts.(v) v expected.(v)
                else
                  O.all_of
                    [
                      (fun () -> certify inst ~who:"out-of-core solve" starts);
                      (fun () ->
                        match Ooc.verify ~tile ~dir src with
                        | Error e ->
                            O.failf "verify: %s" (Ooc.error_to_string e)
                        | Ok mc ->
                            O.check (mc = st.Ooc.maxcolor)
                              "streaming verify maxcolor %d <> solve \
                               maxcolor %d"
                              mc st.Ooc.maxcolor);
                      (fun () ->
                        match Ooc.solve ~tile ~dir src with
                        | Error e ->
                            O.failf "resume: %s" (Ooc.error_to_string e)
                        | Ok st' ->
                            O.check
                              (st'.Ooc.resumed = st'.Ooc.tiles
                              && st'.Ooc.solved = 0)
                              "resume recomputed %d of %d tiles"
                              st'.Ooc.solved st'.Ooc.tiles);
                    ]));
  }

(* ---- incremental ---------------------------------------------------------------- *)

(* Repair-vs-resolve metamorphic equivalence: apply a seeded delta
   stream to an incremental engine and require, after every single
   delta, that the repaired coloring is bit-identical to a
   from-scratch canonical resolve of the delta'd instance, passes the
   full independent certificate at the engine's claimed maxcolor, and
   that Repaired provenance stayed within the repair budget. The
   engine's changed-cell list and digest — what a patch reply is built
   from — must also hold up: writing the listed cells' new starts into
   the pre-apply coloring reproduces the post-apply one, and the
   maintained digest equals a from-scratch one. The
   stream derives from the instance hash, so a plain instance repro
   replays it; repro files may instead carry explicit delta lines,
   which enter through [incremental_check]. *)
module Inc = Ivc_incremental.Engine
module Delta = Ivc_incremental.Delta

let incremental_max_n = 4096

let incremental_deltas inst = Gen.delta_stream ~seed:(Gen.hash inst) inst

let incremental_check inst deltas =
  match Inc.create inst with
  | exception Cert.Rejected e ->
      O.failf "engine create rejected: %s" (Cert.to_string e)
  | t ->
      let pure = ref inst in
      let step i d () =
        match Delta.apply_pure !pure d with
        | Error e -> O.failf "delta %d (%s): %s" i (Delta.describe d) e
        | Ok inst' -> (
            let before = Inc.starts t in
            match Inc.apply t d with
            | Error e ->
                O.failf "delta %d (%s): engine: %s" i (Delta.describe d)
                  (Inc.error_to_string e)
            | Ok o ->
                pure := inst';
                let got = Inc.starts t in
                let expected = Inc.resolve inst' in
                if Array.length got <> Array.length expected then
                  O.failf "delta %d: engine has %d cells, instance %d" i
                    (Array.length got) (Array.length expected)
                else if got <> expected then begin
                  let v = first_mismatch expected got in
                  O.failf
                    "delta %d (%s): repaired start %d at vertex %d, \
                     from-scratch resolve %d"
                    i (Delta.describe d) got.(v) v expected.(v)
                end
                else if (Inc.instance t : S.t).w <> (inst' : S.t).w then
                  O.failf "delta %d: engine weights diverged from the delta"
                    i
                else
                  O.all_of
                    [
                      (fun () ->
                        match Cert.check inst' got with
                        | Error e ->
                            O.failf "delta %d: repaired coloring: %s" i
                              (Cert.to_string e)
                        | Ok mc ->
                            O.check (mc = o.Inc.maxcolor)
                              "delta %d: engine maxcolor %d, certified %d" i
                              o.Inc.maxcolor mc);
                      (fun () ->
                        let cells = Inc.changed t in
                        let patched = Array.make (Array.length got) (-1) in
                        Array.blit before 0 patched 0 (Array.length before);
                        Array.iter (fun v -> patched.(v) <- got.(v)) cells;
                        let ascending = ref true in
                        Array.iteri
                          (fun k v -> if k > 0 && cells.(k - 1) >= v then ascending := false)
                          cells;
                        if not !ascending then
                          O.failf "delta %d (%s): changed cells not strictly ascending"
                            i (Delta.describe d)
                        else if patched <> got then
                          O.failf
                            "delta %d (%s): changed cells miss vertex %d"
                            i (Delta.describe d) (first_mismatch got patched)
                        else
                          O.check
                            (Inc.digest t = Inc.digest_of got)
                            "delta %d: maintained digest %x, from scratch %x"
                            i (Inc.digest t) (Inc.digest_of got));
                      (fun () ->
                        match o.Inc.provenance with
                        | Inc.Resolved -> O.Pass
                        | Inc.Repaired { front_cells; waves = _ } ->
                            O.check
                              (front_cells <= Inc.budget t)
                              "delta %d: repair front %d exceeds budget %d"
                              i front_cells (Inc.budget t));
                    ])
      in
      O.all_of (List.mapi step deltas)

let incremental =
  {
    O.name = "incremental";
    description =
      "incremental repair over a seeded delta stream = from-scratch \
       canonical resolve, bit-exact and certified, within the repair \
       budget";
    applies =
      (fun inst ->
        let n = S.n_vertices inst in
        n > 0 && n <= incremental_max_n);
    run = (fun inst -> incremental_check inst (incremental_deltas inst));
  }

(* ---- replication --------------------------------------------------------------- *)

(* High-availability end to end: a WAL-journaling primary behind a
   seeded netfault proxy, a warm standby replaying its op stream, and
   a failover client running a mixed solve/delta burst. Mid-burst the
   primary is crash-stopped (Server.kill: connections torn down, no
   drain) and the standby promoted over the wire; the client must
   finish the burst 100% certified, the promoted standby must serve
   exactly the journaled WAL prefix (replayed, re-certified — asserted
   through a cache hit, a per-op re-solve, and a plain delta at the
   head of each delta chain, one of which starts after a cache hit
   that journals nothing), and damaged copies of
   the journal (truncation mid-frame, a bit flip) must fail closed on
   replay and be quarantined by a scrub pass that stays idempotent. *)
module Wal = Ivc_persist.Wal
module Scrub = Ivc_persist.Scrub
module Replica = Ivc_server.Replica

let replication_max_n = 150

let with_fresh_dir prefix f =
  let dir = Filename.temp_file prefix ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm p =
    if (try Sys.is_directory p with Sys_error _ -> false) then begin
      Array.iter (fun n -> rm (Filename.concat p n)) (Sys.readdir p);
      try Unix.rmdir p with Unix.Unix_error _ -> ()
    end
    else try Sys.remove p with Sys_error _ -> ()
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_whole path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let replication =
  {
    O.name = "replication";
    description =
      "kill -9 of the WAL-journaling primary mid-burst behind netfaults: \
       the failover client finishes 100% certified, the promoted standby \
       serves the re-certified journaled prefix, and damaged journal \
       copies fail closed and are quarantined by an idempotent scrub";
    applies =
      (fun inst ->
        let n = S.n_vertices inst in
        n > 0 && n <= replication_max_n);
    run =
      (fun inst ->
        with_fresh_dir "ivc-repl-p" @@ fun pdir ->
        with_fresh_dir "ivc-repl-s" @@ fun sdir ->
        with_fresh_dir "ivc-repl-x" @@ fun xdir ->
        let up = Filename.temp_file "ivc-repl-up" ".sock" in
        let front = Filename.temp_file "ivc-repl-fr" ".sock" in
        let sb = Filename.temp_file "ivc-repl-sb" ".sock" in
        let h = Gen.hash inst in
        let base addr =
          {
            (Srv.default_config addr) with
            Srv.workers = 1;
            queue_capacity = 8;
            cache_capacity = 8;
            repair_capacity = 8;
            default_deadline_s = 1.0;
            idle_timeout_s = 5.0;
            io_timeout_s = 2.0;
            wal_segment_bytes = 1024;
            wal_fsync = false;
          }
        in
        let primary =
          Srv.start { (base (Srv.Unix_sock up)) with Srv.wal_dir = Some pdir }
        in
        let standby =
          Srv.start
            {
              (base (Srv.Unix_sock sb)) with
              Srv.wal_dir = Some sdir;
              standby = true;
              (* the lease must not expire during the run: serving is
                 unlocked only by the explicit promote *)
              lease_s = 300.0;
            }
        in
        let fast_retry seed =
          {
            Cl.default_retry with
            Cl.attempts = 6;
            base_delay_s = 0.02;
            max_delay_s = 0.1;
            seed;
            connect_timeout_s = 2.0;
            request_timeout_s = Some 2.0;
          }
        in
        let rep =
          Replica.start ~retry:(fast_retry h) ~recv_timeout_s:2.0 standby
            ~upstream:(Srv.Unix_sock up)
        in
        (* milder than the chaos plan: the fault budget exercises the
           retry/failover paths without eating the whole burst *)
        let plan =
          Net.parse
            (Printf.sprintf "seed=%d,delay=0.05:0.001,tear=0.05,dup=0.05" h)
        in
        let proxy =
          Net.start ~listen:(Srv.Unix_sock front)
            ~upstream:(Srv.Unix_sock up) ~plan
        in
        Fun.protect
          ~finally:(fun () ->
            Net.stop proxy;
            Replica.stop rep;
            (* stop is idempotent and shares kill's flag *)
            Srv.stop primary;
            Srv.stop standby;
            List.iter
              (fun p -> try Sys.remove p with Sys_error _ -> ())
              [ up; front; sb ])
        @@ fun () ->
        let opts =
          {
            P.default_solve_options with
            P.deadline_s = Some 1.0;
            budget = Some 50;
            improve = false;
          }
        in
        let violation = ref None in
        let note m = if !violation = None then violation := Some m in
        let endpoints = [ Srv.Unix_sock front; Srv.Unix_sock sb ] in
        let retry = fast_retry (h + 1) in
        let solve_fo who i =
          match Cl.solve_failover ~retry ~endpoints ~opts i with
          | Ok (P.Solution s, _) -> (
              match Cert.check i s.P.starts with
              | Ok mc when mc = s.P.maxcolor -> Some s
              | Ok mc ->
                  note
                    (Printf.sprintf "%s: claimed maxcolor %d, certified %d"
                       who s.P.maxcolor mc);
                  None
              | Error e ->
                  note
                    (Printf.sprintf "%s: uncertified: %s" who
                       (Cert.to_string e));
                  None)
          | Ok (_, _) ->
              note (who ^ ": burst request was not answered with a Solution");
              None
          | Error e ->
              note (who ^ ": " ^ Cl.error_to_string e);
              None
        in
        (* a chain is its client-side mirror and its head key *)
        let new_chain () = (ref inst, ref (Snapshot.fingerprint inst)) in
        let delta_fo who (mirror, fp) d =
          match Delta.apply_pure !mirror d with
          | Error _ -> () (* the generator only draws valid deltas *)
          | Ok inst' -> (
              match
                Cl.delta_failover ~retry ~endpoints ~fp:!fp ~mirror:inst' d
              with
              | Ok (P.Solution s, _) -> (
                  mirror := inst';
                  fp := s.P.fingerprint;
                  match Cert.check inst' s.P.starts with
                  | Ok mc when mc = s.P.maxcolor -> ()
                  | Ok mc ->
                      note
                        (Printf.sprintf "%s: claimed maxcolor %d, certified %d"
                           who s.P.maxcolor mc)
                  | Error e ->
                      note
                        (Printf.sprintf "%s: uncertified: %s" who
                           (Cert.to_string e)))
              | Ok (_, _) ->
                  note (who ^ ": delta was not answered with a Solution")
              | Error e -> note (who ^ ": " ^ Cl.error_to_string e))
        in
        let deltas = Gen.delta_stream ~length:4 ~seed:h inst in
        let chain1 = new_chain () and chain2 = new_chain () in
        (* phase A: journal a mixed prefix through the faulty proxy,
           then a second chain from the instance key after a cache-hit
           solve; its leading empty Batch keeps its keys apart from
           the first chain's *)
        ignore (solve_fo "solve A" inst);
        (match deltas with
        | a :: b :: _ ->
            delta_fo "delta A0" chain1 a;
            delta_fo "delta A1" chain1 b
        | [ a ] -> delta_fo "delta A0" chain1 a
        | [] -> ());
        ignore (solve_fo "solve A again" inst);
        List.iteri
          (fun i d -> delta_fo (Printf.sprintf "delta A'%d" i) chain2 d)
          (Delta.Batch [||] :: Gen.delta_stream ~length:2 ~seed:(h + 2) inst);
        (* the standby must drain to lag 0 before the crash *)
        let t0 = Ivc_obs.now_ns () in
        let rec drain () =
          if Srv.repl_applied standby >= Srv.repl_head primary then Ok ()
          else if Ivc_obs.elapsed_s ~since:t0 > 8.0 then
            Error
              (Printf.sprintf "standby lag stuck at %d/%d"
                 (Srv.repl_applied standby) (Srv.repl_head primary))
          else begin
            Unix.sleepf 0.02;
            drain ()
          end
        in
        (match drain () with Ok () -> () | Error m -> note m);
        let journaled = Srv.repl_head primary in
        if journaled = 0 then note "primary journaled nothing in phase A";
        (* crash the primary mid-burst and promote over the wire *)
        Srv.kill primary;
        (match Cl.connect ~timeout_s:2.0 (Srv.Unix_sock sb) with
        | Error e -> note ("promote connect: " ^ Cl.error_to_string e)
        | Ok c ->
            let r = Cl.promote ~timeout_s:5.0 c in
            Cl.close c;
            (match r with
            | Ok applied ->
                if applied < journaled then
                  note
                    (Printf.sprintf "promoted at applied_seq %d, journaled %d"
                       applied journaled)
            | Error e -> note ("promote: " ^ Cl.error_to_string e)));
        (* every chain the primary served lives on in the promoted
           standby: a plain delta at its head answers and certifies.
           Not delta_failover, whose re-solve would hide a lost chain *)
        List.iteri
          (fun i (mirror, fp) ->
            let probe = Delta.Batch [||] in
            match Cl.connect ~timeout_s:2.0 (Srv.Unix_sock sb) with
            | Error e ->
                note
                  (Printf.sprintf "chain %d head: connect: %s" i
                     (Cl.error_to_string e))
            | Ok c -> (
                let r = Cl.delta ~timeout_s:5.0 c ~fp:!fp probe in
                Cl.close c;
                match r with
                | Ok (P.Solution s) -> (
                    match
                      Cl.verify_delta
                        ~expect_fp:(Delta.chain_fp !fp probe)
                        !mirror s
                    with
                    | Ok s -> fp := s.P.fingerprint
                    | Error e ->
                        note
                          (Printf.sprintf "chain %d head on the standby: %s" i
                             (Cl.error_to_string e)))
                | Ok (P.Error { code; message }) ->
                    note
                      (Printf.sprintf "chain %d head lost on the standby: %s: %s"
                         i (P.error_code_to_string code) message)
                | Ok _ -> note (Printf.sprintf "chain %d head: not a Solution" i)
                | Error e ->
                    note
                      (Printf.sprintf "chain %d head: %s" i
                         (Cl.error_to_string e))))
          [ chain1; chain2 ];
        (* phase B: the burst finishes through failover; the re-solve
           of the journaled instance must hit the replayed cache *)
        (match solve_fo "solve B" inst with
        | Some s ->
            if not s.P.cache_hit then
              note "replayed solve missed the promoted standby's cache"
        | None -> ());
        (match deltas with
        | _ :: _ :: rest ->
            List.iteri
              (fun i d -> delta_fo (Printf.sprintf "delta B%d" i) chain1 d)
              rest
        | _ -> ());
        (* the journaled prefix is the authority: decode, re-certify,
           and require the promoted standby to serve each solved op *)
        let ops = ref [] in
        let recovery = Wal.replay ~dir:pdir (fun _ p -> ops := p :: !ops) in
        let ops = List.rev !ops in
        if recovery.Wal.truncated then
          note "pristine primary journal reported truncation";
        if List.length ops <> journaled then
          note
            (Printf.sprintf "primary WAL holds %d records, feed head was %d"
               (List.length ops) journaled);
        List.iteri
          (fun i payload ->
            match P.decode_op payload with
            | Error m -> note (Printf.sprintf "WAL op %d undecodable: %s" i m)
            | Ok (P.Op_delta _) -> ()
            | Ok
                (P.Op_solved
                   { fp = ofp; inst = oinst; starts; maxcolor; _ }) -> (
                (match Cert.check oinst starts with
                | Ok mc when mc = maxcolor -> ()
                | _ ->
                    note
                      (Printf.sprintf "WAL op %d fails re-certification" i));
                match Cl.connect ~timeout_s:2.0 (Srv.Unix_sock sb) with
                | Error e ->
                    note
                      (Printf.sprintf "WAL op %d: standby connect: %s" i
                         (Cl.error_to_string e))
                | Ok c -> (
                    let r = Cl.solve ~timeout_s:5.0 c ~opts oinst in
                    Cl.close c;
                    match r with
                    | Ok (P.Solution s) -> (
                        if not (Int64.equal s.P.fingerprint ofp) then
                          note
                            (Printf.sprintf
                               "WAL op %d: standby fingerprint mismatch" i);
                        match Cert.check oinst s.P.starts with
                        | Ok mc when mc = s.P.maxcolor -> ()
                        | _ ->
                            note
                              (Printf.sprintf
                                 "WAL op %d: standby answer uncertified" i))
                    | Ok _ ->
                        note
                          (Printf.sprintf
                             "WAL op %d: standby refused a journaled instance"
                             i)
                    | Error e ->
                        note
                          (Printf.sprintf "WAL op %d: standby solve: %s" i
                             (Cl.error_to_string e)))))
          ops;
        (* fail-closed recovery + scrub on damaged copies of the journal *)
        let wal_files =
          Sys.readdir pdir |> Array.to_list
          |> List.filter (fun n -> Wal.is_segment n || Wal.is_active n)
          |> List.map (fun n ->
                 let p = Filename.concat pdir n in
                 (p, (Unix.stat p).Unix.st_size))
          |> List.sort (fun (_, a) (_, b) -> compare b a)
        in
        (match wal_files with
        | (src, size) :: _ when size > 24 ->
            let contents = read_whole src in
            (* (i) truncation mid-frame: replay must survive and flag it *)
            let tdir = Filename.concat xdir "trunc" in
            Unix.mkdir tdir 0o755;
            write_whole
              (Filename.concat tdir "wal-0000000000000000.seg")
              (String.sub contents 0 (size - 5));
            (match Wal.replay ~dir:tdir (fun _ _ -> ()) with
            | r ->
                if not r.Wal.truncated then
                  note "truncated journal copy did not report truncation"
            | exception e ->
                note
                  (Printf.sprintf "replay of truncated copy raised %s"
                     (Printexc.to_string e)));
            (* (ii) a single bit flip past the magic: detected, then
               quarantined by a scrub pass that stays idempotent *)
            let bdir = Filename.concat xdir "flip" in
            Unix.mkdir bdir 0o755;
            let flipped = Filename.concat bdir "wal-0000000000000000.seg" in
            let b = Bytes.of_string contents in
            let off = 8 + (abs h mod (size - 8)) in
            Bytes.set b off
              (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
            write_whole flipped (Bytes.to_string b);
            (match Wal.verify_file flipped with
            | `Damaged _ -> ()
            | `Ok _ -> note "bit flip was not detected by verify_file");
            (match Wal.replay ~dir:bdir (fun _ _ -> ()) with
            | _ -> ()
            | exception e ->
                note
                  (Printf.sprintf "replay of bit-flipped copy raised %s"
                     (Printexc.to_string e)));
            let r1 = Scrub.run ~dirs:[ bdir ] () in
            if r1.Scrub.quarantined < 1 then
              note
                (Printf.sprintf "scrub missed the bit flip: %s"
                   (Scrub.report_to_string r1));
            let r2 = Scrub.run ~dirs:[ bdir ] () in
            if r2.Scrub.quarantined > 0 then
              note
                (Printf.sprintf "scrub is not idempotent: %s"
                   (Scrub.report_to_string r2))
        | _ -> note "primary left no journal worth damaging");
        match !violation with Some m -> O.Fail m | None -> O.Pass);
  }

(* ---- registry ------------------------------------------------------------------ *)

let all =
  [
    cert;
    kernel_diff;
    tiled_diff;
    par_diff;
    bound_sandwich;
    bound_monotone;
    metamorphic;
    portfolio;
    crash_resume;
    chaos;
    ooc;
    incremental;
    replication;
  ]

let find name =
  List.find_opt
    (fun (o : Oracle.t) -> String.lowercase_ascii o.Oracle.name = String.lowercase_ascii name)
    (all @ [ kernel_diff_buggy ])

let names = List.map (fun (o : Oracle.t) -> o.Oracle.name) all
