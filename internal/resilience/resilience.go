// Package resilience is the serving stack's overload-protection and
// fault-injection layer.
//
// Three concerns live here. hetserve and hetgate share the first two;
// the third is hetgate's:
//
//   - Admission: a cost-aware admission controller in front of the
//     estimation worker pool. Requests declare an estimated cost
//     (grid size × repeats for an Identify search); the controller
//     bounds the total cost in flight and keeps a small bounded wait
//     stack that is served LIFO under overload — the newest waiter is
//     the one whose client is most likely still listening. When the
//     stack is full the request is shed immediately (ErrOverloaded →
//     HTTP 429 + Retry-After) instead of queuing unboundedly.
//
//   - Deadline propagation: an X-Deadline-Ms header carries the
//     remaining time budget from the gateway to its backends. hetgate
//     derives the budget from its client-facing timeout, shrinks it as
//     retry attempts consume wall-clock, and hetserve
//     tightens its per-request context to the propagated budget — the
//     core searchers observe that context between threshold
//     evaluations, so late work is cancelled rather than computed and
//     discarded.
//
//   - Fault injection: Faults wraps the gateway's transport to its
//     backends, health probes included, and injects latency, errors,
//     stalls and slow-drip bodies by rule. It is the only injection
//     site: backends themselves never fault. The rule set is parsed
//     from hetgate's -faults flag and every random decision comes from
//     a seeded RNG, so a chaos run is reproducible the same way
//     cluster.Config.Seed makes backoff schedules reproducible.
//
// Everything is standard library, like the rest of the serving stack.
package resilience
