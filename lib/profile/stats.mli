(** Summary statistics used in the prose of Section VI: average ratio
    to a lower bound, percentage of provably optimal solutions,
    pairwise runtime/quality comparisons. *)

val mean : float array -> float
val geometric_mean : float array -> float
val median : float array -> float

(** [percentile xs p] is the nearest-rank [p]-quantile of [xs]: the
    sorted sample at index [min (n-1) (floor (p*n))]; 0 on empty
    input. The latency percentiles of the bench and CLI reports. *)
val percentile : float array -> float -> float

val min_max : float array -> float * float

(** [avg_ratio values refs] is the mean of values./refs (pairs with a
    non-positive reference are skipped). *)
val avg_ratio : int array -> int array -> float

(** [pct_equal values refs] is the percentage of indices where the two
    agree — e.g. "% of instances where the heuristic matches the max-K4
    lower bound". *)
val pct_equal : int array -> int array -> float

(** [pct_improvement a b] is [(mean b - mean a) / mean a * 100]: how
    much larger [b] is than [a] on average, in percent (the form of the
    paper's "BDP was 182% faster than SGK" statements). *)
val pct_improvement : float array -> float array -> float

(** Pearson correlation coefficient; 0 when either variance vanishes.
    Used for the Figure 10 colors-vs-runtime regression. *)
val pearson : float array -> float array -> float
