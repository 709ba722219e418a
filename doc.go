// Package nde is a Go implementation of the data-debugging toolkit from the
// SIGMOD 2025 tutorial "Navigating Data Errors in Machine Learning
// Pipelines: Identify, Debug, and Learn" (Karlaš, Salimi, Schelter).
//
// The library covers the tutorial's three pillars:
//
//  1. Identify — data-importance methods that rank training examples by
//     their contribution to downstream model quality: leave-one-out,
//     Monte-Carlo and exact Shapley values, the closed-form kNN-Shapley,
//     Banzhaf and Beta-Shapley semivalues, influence functions, and
//     uncertainty-based label-noise scores (internal/importance).
//
//  2. Debug — provenance-tracked preprocessing pipelines (joins, filters,
//     UDF columns, feature encoders) whose outputs carry provenance
//     polynomials back to source tuples, enabling Datascope-style importance
//     over pipelines, mlinspect-style distribution inspections, and
//     ArgusEyes-style screening for leakage and label issues
//     (internal/pipeline, internal/prov).
//
//  3. Learn — reasoning under unresolved errors: Zorro-style uncertainty
//     propagation with prediction ranges and worst-case loss bounds,
//     CPClean certain predictions for kNN over incomplete data, and
//     possible-world enumeration (internal/uncertain).
//
// This package is the convenience facade: it regenerates the tutorial's
// hands-on hiring scenario (recommendation letters with side tables),
// mirrors the notebook-level API of Figures 2–4, and re-exports the core
// types. Power users can import the internal packages' counterparts
// directly through the aliases defined here.
package nde
