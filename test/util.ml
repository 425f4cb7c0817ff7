(* Shared helpers for the test suites: thin wrappers over the library
   generators so suites stay uniform. *)

let random_execution = Execgraph.Generate.random_execution
let max_relevant_ratio g = Execgraph.Generate.max_relevant_ratio_enum g

(* [contains needle hay]: does [needle] occur in [hay]? *)
let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0
