//! Baseline protocols the paper compares against, reimplemented from their
//! published descriptions over the same substrates as ABNN² (so measured
//! differences reflect protocol design, not implementation stacks):
//!
//! * [`secureml`] — SecureML's (S&P'17) OT-based multiplication triplets:
//!   ℓ correlated OTs per scalar product, independent of weight bitwidth
//!   (Table 3's comparison),
//! * [`minionn`] — MiniONN's (CCS'17) offline linear phase on additively
//!   homomorphic encryption with plaintext slot packing (Table 4's
//!   comparison; see `DESIGN.md` for the SEAL→Paillier substitution),
//! * [`quotient`] — QUOTIENT's (CCS'19) ternary multiplication via two
//!   binary correlated OTs per weight (Table 5's comparison).
//!
//! All baselines share ABNN²'s online machinery (`abnn2_core::relu`,
//! `abnn2_core::graph::linear_share`) exactly as the paper shares its GC
//! layer across systems. Their clients, like ABNN²'s, know only the served
//! model's [`PublicModel`].

pub mod minionn;
pub mod quotient;
pub mod secureml;

use abnn2_core::{ProtocolError, PublicModel};
use abnn2_nn::graph::LayerOp;

/// Layer dims `[in, hidden…, out]` of an MLP, read off its public graph's
/// `Dense` ops.
///
/// # Errors
///
/// [`ProtocolError::Dimension`] if the graph is invalid or holds an op
/// other than `Dense`, `Relu` and `Output`: the baselines serve MLPs only.
pub(crate) fn mlp_dims(model: &PublicModel) -> Result<Vec<usize>, ProtocolError> {
    let graph = model.graph();
    graph.validate().map_err(|e| ProtocolError::Dimension(e.message()))?;
    let mut dims = vec![graph.input_len()];
    for op in &graph.ops {
        match *op {
            LayerOp::Dense { out_dim, .. } => dims.push(out_dim),
            LayerOp::Relu { .. } | LayerOp::Output { .. } => {}
            _ => return Err(ProtocolError::Dimension("the baselines serve MLPs only")),
        }
    }
    Ok(dims)
}
