//! Binary rollout-segment codec: one episode's [`Rollout`] to bytes and
//! back, bit-exactly, plus an optional zero-run compression layer.
//!
//! The encoding is a fixed little-endian layout (version byte, shape
//! header, then each field in declaration order), read and written through
//! `agsc_serve::wire`'s field codec, so a segment is a pure
//! function of the rollout — the learner can reassemble exactly what the
//! worker collected, and duplicate deliveries of the same (generation,
//! env-index) segment are byte-identical and therefore harmless.
//!
//! Compression is a byte-level zero-run RLE picked for rollout payloads:
//! observation vectors are full of structural zeros (empty PoI cells,
//! padded neighbour lists encode as zero-length runs) and every `f32`
//! zero is four zero bytes. The mode byte travels with the payload, so a
//! worker and learner configured differently still interoperate.

use agsc_madrl::nn::Matrix;
use agsc_madrl::{Rollout, ACTION_DIM};
use agsc_serve::wire::{DecodeError, Put, Reader};

use crate::error::DistError;

/// Codec layout version; bumped on any layout change so a mixed-version
/// fleet fails typed instead of misreading bytes.
pub const CODEC_VERSION: u8 = 1;

/// Compression applied to an encoded segment before framing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Compression {
    /// Ship the raw encoding.
    None,
    /// Byte-level zero-run RLE (`0x00` escape followed by a run length
    /// `1..=255`); decodes bit-exactly. The default: rollout payloads are
    /// zero-dense and the codec is allocation-light.
    #[default]
    Rle,
}

/// Parses an `AGSC_DIST_COMPRESS` value: `none` or `rle`.
impl std::str::FromStr for Compression {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        match s {
            "none" => Ok(Compression::None),
            "rle" => Ok(Compression::Rle),
            _ => Err(()),
        }
    }
}

fn put_neighbor_sets(buf: &mut Vec<u8>, sets: &[Vec<Vec<usize>>]) {
    for ns in sets.iter().flatten() {
        buf.put_u32(ns.len() as u32);
        for &n in ns {
            buf.put_u32(n as u32);
        }
    }
}

fn read_neighbor_sets(
    r: &mut Reader<'_>,
    steps: usize,
    k: usize,
    cap: usize,
) -> Result<Vec<Vec<Vec<usize>>>, DecodeError> {
    let mut read_set = || {
        let len = r.u32()?;
        let len = r.count(len, 4, cap)?;
        (0..len).map(|_| Ok(r.u32()? as usize)).collect()
    };
    (0..steps).map(|_| (0..k).map(|_| read_set()).collect()).collect()
}

/// Encode one rollout into the versioned binary layout (uncompressed).
pub fn encode_rollout(rollout: &Rollout) -> Vec<u8> {
    let k = rollout.num_agents();
    let steps = rollout.len();
    let obs_dim = rollout.obs.first().map_or(0, Matrix::cols);
    let state_dim = rollout.states.cols();
    let mut buf = Vec::with_capacity(64 + k * steps * (obs_dim + 4) * 4);
    buf.push(CODEC_VERSION);
    for dim in [k, steps, obs_dim, state_dim] {
        buf.put_u32(dim as u32);
    }
    // Observations, states, actions, log-probs, rewards: agent-major, then
    // step-major, as the fields are declared — each field one slice.
    let matrices = rollout.obs.iter().chain([&rollout.states]).chain(&rollout.actions);
    let series = rollout.log_probs.iter().chain(&rollout.rewards_ext);
    let fields = matrices.map(Matrix::as_slice).chain(series.map(Vec::as_slice));
    fields.flatten().for_each(|&v| buf.put_f32(v));
    put_neighbor_sets(&mut buf, &rollout.het_neighbors);
    put_neighbor_sets(&mut buf, &rollout.hom_neighbors);
    for &c in &rollout.collected_per_uv {
        buf.put_f64(c);
    }
    buf.put_u32(rollout.episode_lens.len() as u32);
    for &l in &rollout.episode_lens {
        buf.put_u32(l as u32);
    }
    buf
}

/// Decode a rollout encoded by [`encode_rollout`], validating the version
/// byte, every length against the shape header, and that no bytes trail
/// the body.
pub fn decode_rollout(bytes: &[u8]) -> Result<Rollout, DistError> {
    if let Some(&version) = bytes.first().filter(|&&v| v != CODEC_VERSION) {
        return Err(DistError::Codec(format!(
            "segment codec version {version}, this build speaks {CODEC_VERSION}"
        )));
    }
    read_rollout(bytes).map_err(|e| DistError::Codec(format!("segment {e}")))
}

/// The next `n` `f32`s, bit-exactly, in one allocation.
fn f32s(r: &mut Reader<'_>, n: usize) -> Result<Vec<f32>, DecodeError> {
    let bytes = r.take(n.saturating_mul(4))?;
    Ok(bytes.chunks_exact(4).map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes"))).collect())
}

fn read_rollout(bytes: &[u8]) -> Result<Rollout, DecodeError> {
    let cap = bytes.len();
    let mut r = Reader::new(bytes);
    r.u8()?; // the version byte, checked by `decode_rollout`
    let (k, steps, obs_dim, state_dim) = (r.u32()?, r.u32()?, r.u32()?, r.u32()?);
    let (obs_dim, state_dim) = (obs_dim as usize, state_dim as usize);
    // Bound the shape by the bytes present before allocating for it: every
    // agent-step carries an observation, an action pair, a log-prob, a
    // reward and two neighbour-list lengths; every step a state row; every
    // agent a collected total. `count` charges each row at least one byte,
    // so a zero-width shape cannot declare billions of rows either.
    let agent_step = obs_dim.saturating_mul(4).saturating_add(24);
    let step = state_dim.saturating_mul(4).saturating_add((k as usize).saturating_mul(agent_step));
    let steps = r.count(steps, step, cap)?;
    let k = r.count(k, steps.saturating_mul(agent_step).saturating_add(8), cap)?;
    let mut rollout = Rollout::new(k);
    for a in 0..k {
        rollout.obs[a] = Matrix::from_vec(steps, obs_dim, f32s(&mut r, steps * obs_dim)?);
    }
    rollout.states = Matrix::from_vec(steps, state_dim, f32s(&mut r, steps * state_dim)?);
    for a in 0..k {
        rollout.actions[a] = Matrix::from_vec(steps, ACTION_DIM, f32s(&mut r, steps * ACTION_DIM)?);
    }
    for a in 0..k {
        rollout.log_probs[a] = f32s(&mut r, steps)?;
    }
    for a in 0..k {
        rollout.rewards_ext[a] = f32s(&mut r, steps)?;
    }
    rollout.het_neighbors = read_neighbor_sets(&mut r, steps, k, cap)?;
    rollout.hom_neighbors = read_neighbor_sets(&mut r, steps, k, cap)?;
    rollout.collected_per_uv = (0..k).map(|_| r.f64()).collect::<Result<_, _>>()?;
    let n_lens = r.u32()?;
    let n_lens = r.count(n_lens, 4, cap)?;
    rollout.episode_lens = (0..n_lens).map(|_| Ok(r.u32()? as usize)).collect::<Result<_, _>>()?;
    r.finish()?;
    Ok(rollout)
}

/// Wrap `raw` in a compression envelope (one mode byte + body).
pub fn compress(raw: &[u8], mode: Compression) -> Vec<u8> {
    match mode {
        Compression::None => {
            let mut out = Vec::with_capacity(raw.len() + 1);
            out.push(0);
            out.extend_from_slice(raw);
            out
        }
        Compression::Rle => {
            let mut out = Vec::with_capacity(raw.len() / 2 + 1);
            out.push(1);
            let mut i = 0;
            while i < raw.len() {
                if raw[i] == 0 {
                    let mut run = 1usize;
                    while run < 255 && i + run < raw.len() && raw[i + run] == 0 {
                        run += 1;
                    }
                    out.push(0);
                    out.push(run as u8);
                    i += run;
                } else {
                    out.push(raw[i]);
                    i += 1;
                }
            }
            out
        }
    }
}

/// Undo [`compress`]; the mode byte in the envelope decides the path, so
/// mixed-mode fleets interoperate.
pub fn decompress(enveloped: &[u8]) -> Result<Vec<u8>, DistError> {
    let (&mode, body) = enveloped
        .split_first()
        .ok_or_else(|| DistError::Codec("empty compression envelope".into()))?;
    match mode {
        0 => Ok(body.to_vec()),
        1 => {
            let mut out = Vec::with_capacity(body.len() * 2);
            let mut i = 0;
            while i < body.len() {
                if body[i] == 0 {
                    let run = *body.get(i + 1).ok_or_else(|| {
                        DistError::Codec("RLE stream ends inside a zero-run escape".into())
                    })?;
                    if run == 0 {
                        return Err(DistError::Codec("RLE zero-run of length zero".into()));
                    }
                    out.resize(out.len() + run as usize, 0);
                    i += 2;
                } else {
                    out.push(body[i]);
                    i += 1;
                }
            }
            Ok(out)
        }
        other => Err(DistError::Codec(format!("unknown compression mode byte {other:#04x}"))),
    }
}

/// [`encode_rollout`] + [`compress`] in one call — what workers put on the
/// wire.
pub fn encode_segment(rollout: &Rollout, mode: Compression) -> Vec<u8> {
    compress(&encode_rollout(rollout), mode)
}

/// [`decompress`] + [`decode_rollout`] — what the learner takes off the
/// wire.
pub fn decode_segment(bytes: &[u8]) -> Result<Rollout, DistError> {
    decode_rollout(&decompress(bytes)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rollout() -> Rollout {
        let mut r = Rollout::new(2);
        for t in 0..4 {
            let obs = vec![vec![t as f32, 0.0, -1.5], vec![0.0, t as f32, 2.5]];
            let state = vec![t as f32, 0.0, 0.0, 1.0];
            let actions = [[0.1, -0.2], [f32::MIN_POSITIVE, 4.0]];
            let log_probs = [-1.0, -2.5];
            let rewards = [0.0, 2.0];
            let het = vec![vec![1], vec![0]];
            let hom = vec![vec![], vec![1]];
            r.push_step(&obs, state, &actions, &log_probs, &rewards, het, hom);
        }
        r.add_collected(&[3.25, 0.0]);
        r
    }

    #[test]
    fn rollout_round_trips_bit_exactly_under_both_modes() {
        let r = sample_rollout();
        for mode in [Compression::None, Compression::Rle] {
            let decoded = decode_segment(&encode_segment(&r, mode)).unwrap();
            assert_eq!(decoded, r, "mode {mode:?} must round-trip bit-exactly");
        }
    }

    #[test]
    fn negative_zero_and_nan_payloads_survive_the_round_trip() {
        // PartialEq would call -0.0 == 0.0 and NaN != NaN; check raw bits.
        let mut r = Rollout::new(1);
        r.push_step(
            &[vec![-0.0, f32::NAN]],
            vec![f32::INFINITY],
            &[[f32::NEG_INFINITY, -0.0]],
            &[f32::NAN],
            &[0.0],
            vec![vec![]],
            vec![vec![]],
        );
        let decoded = decode_segment(&encode_segment(&r, Compression::Rle)).unwrap();
        assert_eq!(decoded.obs[0][(0, 0)].to_bits(), (-0.0f32).to_bits());
        assert_eq!(decoded.obs[0][(0, 1)].to_bits(), f32::NAN.to_bits());
        assert_eq!(decoded.log_probs[0][0].to_bits(), f32::NAN.to_bits());
        assert_eq!(decoded.actions[0][(0, 1)].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn empty_rollout_round_trips() {
        let r = Rollout::new(3);
        let decoded = decode_segment(&encode_segment(&r, Compression::Rle)).unwrap();
        assert_eq!(decoded, r);
        assert_eq!(decoded.num_agents(), 3);
    }

    #[test]
    fn rle_shrinks_zero_dense_payloads() {
        let r = sample_rollout();
        let raw = encode_segment(&r, Compression::None);
        let rle = encode_segment(&r, Compression::Rle);
        assert!(
            rle.len() < raw.len(),
            "zero-dense sample must compress ({} vs {} bytes)",
            rle.len(),
            raw.len()
        );
    }

    #[test]
    fn rle_long_runs_cross_the_255_chunk_boundary() {
        let zeros = vec![0u8; 1000];
        assert_eq!(decompress(&compress(&zeros, Compression::Rle)).unwrap(), zeros);
        let mut mixed = vec![7u8; 3];
        mixed.extend(vec![0u8; 513]);
        mixed.push(9);
        assert_eq!(decompress(&compress(&mixed, Compression::Rle)).unwrap(), mixed);
    }

    #[test]
    fn corrupt_streams_fail_typed() {
        // Truncated body.
        let good = encode_segment(&sample_rollout(), Compression::None);
        let err = decode_segment(&good[..good.len() - 3]).unwrap_err();
        assert!(matches!(err, DistError::Codec(_)), "{err}");
        // Wrong codec version.
        let mut bad = good.clone();
        bad[1] = 99; // byte 0 is the compression mode, byte 1 the codec version
        assert!(matches!(decode_segment(&bad).unwrap_err(), DistError::Codec(_)));
        // Torn RLE escape.
        let torn = vec![1u8, 5, 0];
        assert!(matches!(decompress(&torn).unwrap_err(), DistError::Codec(_)));
        // Unknown compression mode.
        assert!(matches!(decompress(&[9u8, 1, 2]).unwrap_err(), DistError::Codec(_)));
        // Trailing garbage.
        let mut trailing = good.clone();
        trailing.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(decode_segment(&trailing).unwrap_err(), DistError::Codec(_)));
        // 18-byte segments whose zero dimensions declare u32::MAX agents or
        // steps: refused before anything is allocated for them.
        for [k, steps] in [[u32::MAX, 0], [0, u32::MAX]] {
            let mut hostile = vec![0u8, CODEC_VERSION];
            for dim in [k, steps, 0, 0] {
                hostile.extend_from_slice(&dim.to_le_bytes());
            }
            assert_eq!(hostile.len(), 18);
            assert!(matches!(decode_segment(&hostile).unwrap_err(), DistError::Codec(_)));
        }
    }

    #[test]
    fn compression_knob_parses() {
        assert_eq!(Compression::default(), Compression::Rle);
    }
}
