(** Registry of the coloring algorithms evaluated in Section VI, keyed
    by the paper's acronyms. Used by the experiment harness, the CLI
    and the benches. *)

type t = {
  name : string;  (** paper acronym, e.g. "BDP" *)
  description : string;
  run : Ivc_grid.Stencil.t -> int array;
}

(** All heuristics of the paper, in the order they are introduced:
    GLL, GZO, GLF, GKF, SGK, BD, BDP. *)
val all : t list

(** Look an algorithm up by (case-insensitive) name. *)
val find : string -> t option

val names : string list

(** [run_all inst] runs every algorithm and returns
    [(name, starts, maxcolor)] triples. *)
val run_all : Ivc_grid.Stencil.t -> (string * int array * int) list

(** [best inst] is [(maxcolor, starts)] of the first algorithm of {!all}
    with the smallest maxcolor: the warm start of the exact engines. *)
val best : Ivc_grid.Stencil.t -> int * int array
