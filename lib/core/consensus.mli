(** Byzantine consensus on top of lock-step rounds (Section 3 / 6: any
    synchronous Byzantine consensus algorithm runs unchanged over
    Algorithm 2's round simulation).

    Three classic synchronous algorithms over integer values, each a
    {!Lockstep.round_algo} usable both over the ABC lock-step
    simulation and over the perfect synchronous executor
    {!run_synchronous} (the baseline, with per-recipient two-faced
    Byzantine behaviour):

    - {!Eig}: exponential information gathering, [f+1] rounds,
      resilience [n > 3f], exponential messages;
    - {!Queen}: phase queen, [2(f+1)] rounds, [n > 4f], constant
      messages;
    - {!King}: phase king with proposals (Berman–Garay–Perry),
      [3(f+1)] rounds, [n > 3f], constant messages. *)

module Eig : sig
  type state
  type msg = (int list * int) list
      (** relayed (sender-sequence, value) pairs *)

  val algo : f:int -> value:(int -> int) -> (state, msg) Lockstep.round_algo
  val decision : state -> int option
end

module Queen : sig
  type state
  type msg = int

  val algo : f:int -> value:(int -> int) -> (state, msg) Lockstep.round_algo
  val decision : state -> int option
end

module King : sig
  type state
  type msg = int  (** a value; [-1] encodes "no proposal" *)

  val algo : f:int -> value:(int -> int) -> (state, msg) Lockstep.round_algo
  val decision : state -> int option
end

(** Behaviour of a process under the synchronous executor. *)
type 'm sync_behavior =
  | B_correct
  | B_crash of int  (** silent from this round on *)
  | B_byzantine of (round:int -> dst:int -> 'm option)
      (** per-recipient (two-faced) message forging *)

val run_synchronous :
  nprocs:int ->
  behaviors:'m sync_behavior array ->
  algo:('rs, 'm) Lockstep.round_algo ->
  nrounds:int ->
  (int * 'rs) list
(** Run for [nrounds] rounds; returns (id, final state) of the correct
    processes. *)

val check_agreement : ('a * 'b option) list -> inputs:'b list -> bool
(** Agreement of the decisions plus validity on unanimous inputs. *)
