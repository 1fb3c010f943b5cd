//! The binary actor frame a `Params` broadcast carries: every agent's
//! actor weights and log-σ as raw little-endian `f32` bits, plus the fleet
//! shape collection checks. A worker rebuilds exactly the actors the
//! learner holds — bit-exact by construction, since no float is ever
//! formatted or parsed — and nothing it does not run: no critics, `V_all`,
//! LCFs, classifier or optimiser state.
//!
//! | field | encoding |
//! |-------|----------|
//! | version | u8 ([`ACTOR_FRAME_VERSION`]) |
//! | shared | u8, 0 or 1 |
//! | num_agents, obs_dim | u32 each |
//! | neighbor_range_m | f64 |
//! | iterations_done | u64 |
//! | actor count | u32, then per actor: |
//! | · activations | u8 hidden, u8 output |
//! | · layer sizes | count u32, sizes u32×, input first |
//! | · layers | per layer: weights `in × out` f32× row-major, bias `out` f32× |
//! | · log-σ | count u32, f32× |
//!
//! Every declared count is checked against the bytes present
//! ([`Reader::count`]) before anything is allocated for it, so a hostile
//! header cannot drive an allocation.

use agsc_madrl::nn::{Activation, Linear, Matrix, Mlp};
use agsc_madrl::{Actor, ActorSet, FleetShape, InferencePolicy};
use agsc_serve::wire::{DecodeError, Put, Reader};

use crate::error::DistError;

/// Actor-frame layout version, checked before anything else is read.
pub const ACTOR_FRAME_VERSION: u8 = 1;

/// Fewest bytes one actor can occupy: two activation bytes and the two
/// counts.
const MIN_ACTOR_BYTES: usize = 10;

fn activation_code(a: Activation) -> u8 {
    match a {
        Activation::Tanh => 0,
        Activation::Relu => 1,
        Activation::Sigmoid => 2,
        Activation::Linear => 3,
    }
}

fn activation(code: u8) -> Result<Activation, DistError> {
    Ok(match code {
        0 => Activation::Tanh,
        1 => Activation::Relu,
        2 => Activation::Sigmoid,
        3 => Activation::Linear,
        _ => return Err(DistError::Params(format!("unknown activation code {code}"))),
    })
}

/// Append the actor frame of `actors` to `buf`.
pub fn put_actor_frame(buf: &mut Vec<u8>, actors: &ActorSet<'_>, iterations_done: usize) {
    let s = actors.shape();
    let floats: usize = actors.actors().iter().map(|a| a.net.param_count() + a.log_std.len()).sum();
    buf.reserve(32 + 4 * floats);
    buf.extend_from_slice(&[ACTOR_FRAME_VERSION, s.shared as u8]);
    buf.put_u32(s.num_agents as u32);
    buf.put_u32(s.obs_dim as u32);
    buf.put_f64(s.neighbor_range_m);
    buf.put_u64(iterations_done as u64);
    buf.put_u32(actors.actors().len() as u32);
    for a in actors.actors() {
        let (hidden, output) = a.net.activations();
        buf.extend_from_slice(&[activation_code(hidden), activation_code(output)]);
        let layers = a.net.layers();
        buf.put_u32(layers.len() as u32 + 1);
        buf.put_u32(a.net.in_dim() as u32);
        for l in layers {
            buf.put_u32(l.out_dim() as u32);
        }
        for l in layers {
            l.w.value.as_slice().iter().chain(l.b.value.as_slice()).for_each(|&v| buf.put_f32(v));
        }
        buf.put_u32(a.log_std.len() as u32);
        a.log_std.iter().for_each(|&v| buf.put_f32(v));
    }
}

/// Decode a frame written by [`put_actor_frame`] into the actor-only
/// policy it describes. A truncated or oversized field or trailing bytes
/// are a [`DistError::Protocol`] violation, as in every other message; a
/// version other than [`ACTOR_FRAME_VERSION`], a zero-width layer, or
/// actors that do not fit the declared fleet are [`DistError::Params`].
pub fn read_actor_frame(bytes: &[u8]) -> Result<InferencePolicy, DistError> {
    let cap = bytes.len();
    let mut r = Reader::new(bytes);
    let version = r.u8()?;
    if version != ACTOR_FRAME_VERSION {
        return Err(DistError::Params(format!(
            "actor frame version {version}, this build speaks {ACTOR_FRAME_VERSION}"
        )));
    }
    let shared = match r.u8()? {
        0 => false,
        1 => true,
        b => return Err(DistError::Params(format!("actor frame shared flag {b}"))),
    };
    let (num_agents, obs_dim) = (r.u32()?, r.u32()?);
    let neighbor_range_m = r.f64()?;
    let iterations_done = r.u64()? as usize;
    let n = r.u32()?;
    let n = r.count(n, MIN_ACTOR_BYTES, cap)?;
    let actors = (0..n).map(|_| read_actor(&mut r, cap)).collect::<Result<_, _>>()?;
    r.finish()?;
    let shape = FleetShape {
        shared,
        obs_dim: obs_dim as usize,
        num_agents: num_agents as usize,
        neighbor_range_m,
    };
    InferencePolicy::new(actors, shape, iterations_done)
        .map_err(|e| DistError::Params(e.to_string()))
}

fn f32s(r: &mut Reader<'_>, n: usize, cap: usize) -> Result<Vec<f32>, DecodeError> {
    let n = r.count(u32::try_from(n).unwrap_or(u32::MAX), 4, cap)?;
    (0..n).map(|_| r.f32()).collect()
}

fn read_actor(r: &mut Reader<'_>, cap: usize) -> Result<Actor, DistError> {
    let (hidden, output) = (activation(r.u8()?)?, activation(r.u8()?)?);
    let n = r.u32()?;
    let n = r.count(n, 4, cap)?;
    let sizes: Vec<usize> =
        (0..n).map(|_| r.u32().map(|v| v as usize)).collect::<Result<_, _>>()?;
    if sizes.len() < 2 || sizes.contains(&0) {
        return Err(DistError::Params(format!("actor frame layer sizes {sizes:?}")));
    }
    let mut layers = Vec::with_capacity(sizes.len() - 1);
    for io in sizes.windows(2) {
        let (i, o) = (io[0], io[1]);
        let w = f32s(r, i.saturating_mul(o), cap)?;
        let b = f32s(r, o, cap)?;
        layers.push(Linear::from_values(Matrix::from_vec(i, o, w), Matrix::from_vec(1, o, b)));
    }
    let n = r.u32()?;
    let log_std = f32s(r, n as usize, cap)?;
    Ok(Actor { net: Mlp::from_layers(layers, hidden, output), log_std })
}

#[cfg(test)]
mod tests {
    use super::*;
    use agsc_madrl::HiMadrlTrainer;

    fn trained() -> HiMadrlTrainer {
        let mut env = crate::setup::quickstart_env(3);
        let mut trainer = crate::setup::quickstart_trainer(&env, 2, 3).unwrap();
        trainer.train(&mut env, 1);
        trainer
    }

    fn frame(p: &InferencePolicy) -> Vec<u8> {
        let mut buf = Vec::new();
        put_actor_frame(&mut buf, &p.actor_set(), p.iterations_done());
        buf
    }

    #[test]
    fn a_trainers_frame_acts_bit_equal_to_its_checkpoint() {
        let t = trained();
        let mut bytes = Vec::new();
        put_actor_frame(&mut bytes, &t.actor_set(), t.iterations_done());
        let decoded = read_actor_frame(&bytes).unwrap();
        let reference = InferencePolicy::from_checkpoint(&t.checkpoint()).unwrap();
        assert_eq!(decoded, reference);
        assert_eq!(frame(&decoded), bytes, "re-encoding a decoded frame is the identity");
        let rows = 3;
        let obs: Vec<f32> = (0..rows * t.obs_dim()).map(|i| (i % 17) as f32 * 0.05 - 0.3).collect();
        for k in 0..t.num_agents() {
            let bits =
                |a: Vec<[f32; 2]>| a.iter().flatten().map(|v| v.to_bits()).collect::<Vec<_>>();
            let (d, r) = (decoded.actions(k, &obs, rows), reference.actions(k, &obs, rows));
            assert_eq!(bits(d), bits(r), "agent {k}");
        }
    }

    #[test]
    fn every_strict_prefix_and_any_trailing_byte_fail_typed() {
        let t = trained();
        let mut bytes = Vec::new();
        put_actor_frame(&mut bytes, &t.actor_set(), t.iterations_done());
        for cut in (0..bytes.len()).step_by(97).chain([bytes.len() - 1]) {
            let err = read_actor_frame(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, DistError::Protocol(_)), "cut {cut}: {err}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(read_actor_frame(&long), Err(DistError::Protocol(_))));
        let mut future = bytes;
        future[0] = ACTOR_FRAME_VERSION + 1;
        let err = read_actor_frame(&future).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }
}
