//! Named parameter storage with binary checkpointing.

use std::collections::HashMap;
use vsan_autograd::{Graph, Var};
use vsan_tensor::{serialize, Tensor};

/// Index of a parameter inside a [`ParamStore`]; doubles as the gradient
/// key on the autograd tape.
pub type ParamId = usize;

/// A flat, named collection of trainable tensors.
///
/// Layers register parameters at construction; training loops hand
/// parameters to a fresh [`Graph`] each batch via [`ParamStore::var`], and
/// optimizers mutate them in place via [`ParamStore::get_mut`].
#[derive(Debug, Default)]
pub struct ParamStore {
    tensors: Vec<Tensor>,
    names: Vec<String>,
    by_name: HashMap<String, ParamId>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter under a unique name. Panics on duplicates —
    /// that is always a layer-construction bug.
    pub fn add(&mut self, name: impl Into<String>, t: Tensor) -> ParamId {
        let name = name.into();
        assert!(
            !self.by_name.contains_key(&name),
            "duplicate parameter name {name:?}"
        );
        let id = self.tensors.len();
        self.tensors.push(t);
        self.by_name.insert(name.clone(), id);
        self.names.push(name);
        id
    }

    /// Parameter count.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// `true` when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Total scalar count across all parameters (model size).
    pub fn num_scalars(&self) -> usize {
        self.tensors.iter().map(Tensor::numel).sum()
    }

    /// Immutable access by id.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.tensors[id]
    }

    /// Mutable access by id (optimizer updates).
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.tensors[id]
    }

    /// Look up a parameter id by name.
    pub fn id_of(&self, name: &str) -> Option<ParamId> {
        self.by_name.get(name).copied()
    }

    /// Name of a parameter id.
    pub fn name_of(&self, id: ParamId) -> &str {
        &self.names[id]
    }

    /// Place the parameter onto a graph as a trainable leaf.
    pub fn var(&self, g: &mut Graph, id: ParamId) -> Var {
        g.param(self.tensors[id].clone(), id)
    }

    /// Iterate `(id, name, tensor)`.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Tensor)> {
        self.tensors
            .iter()
            .enumerate()
            .map(|(id, t)| (id, self.names[id].as_str(), t))
    }

    /// `true` if every parameter is finite — a cheap NaN tripwire for
    /// training loops.
    pub fn all_finite(&self) -> bool {
        self.tensors.iter().all(Tensor::all_finite)
    }

    /// Serialize every parameter (names + tensors) into a checkpoint blob.
    pub fn save(&self) -> Vec<u8> {
        let mut buf = (self.tensors.len() as u64).to_le_bytes().to_vec();
        for (t, name) in self.tensors.iter().zip(&self.names) {
            buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
            buf.extend_from_slice(name.as_bytes());
            serialize::encode_into(t, &mut buf);
        }
        buf
    }

    /// Restore a store from a checkpoint blob produced by [`Self::save`].
    /// A truncated or hostile blob (a repeated name, or bytes after the
    /// last parameter, included) is an `Err`, never a panic.
    pub fn load(blob: &[u8]) -> Result<Self, String> {
        let (n, mut blob) = blob.split_first_chunk().ok_or("checkpoint too short")?;
        let n = u64::from_le_bytes(*n) as usize;
        if n > 1_000_000 {
            return Err("implausible parameter count".into());
        }
        let mut store = ParamStore::new();
        for _ in 0..n {
            let (name_len, rest) = blob.split_first_chunk().ok_or("truncated name header")?;
            let (name, rest) =
                rest.split_at_checked(u32::from_le_bytes(*name_len) as usize).ok_or("truncated name")?;
            let name = std::str::from_utf8(name).map_err(|_| "bad utf8 name")?;
            blob = rest;
            let t = serialize::decode(&mut blob).map_err(|e| e.to_string())?;
            if store.id_of(name).is_some() {
                return Err(format!("duplicate parameter name {name:?}"));
            }
            store.add(name, t);
        }
        if !blob.is_empty() {
            return Err(format!("{} bytes after the last parameter", blob.len()));
        }
        Ok(store)
    }

    /// Restore parameter *values* from a checkpoint into an already-built
    /// store, matching by name. Shapes must agree. Returns the number of
    /// parameters restored.
    pub fn load_values(&mut self, blob: &[u8]) -> Result<usize, String> {
        let other = ParamStore::load(blob)?;
        let mut restored = 0usize;
        for (_, name, tensor) in other.iter() {
            if let Some(id) = self.id_of(name) {
                if self.tensors[id].dims() != tensor.dims() {
                    return Err(format!("shape mismatch for {name}"));
                }
                self.tensors[id] = tensor.clone();
                restored += 1;
            }
        }
        Ok(restored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_lookup() {
        let mut s = ParamStore::new();
        let a = s.add("w", Tensor::ones(&[2, 2]));
        let b = s.add("b", Tensor::zeros(&[2]));
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_scalars(), 6);
        assert_eq!(s.id_of("w"), Some(a));
        assert_eq!(s.id_of("b"), Some(b));
        assert_eq!(s.id_of("missing"), None);
        assert_eq!(s.name_of(a), "w");
        assert!(s.all_finite());
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_names_panic() {
        let mut s = ParamStore::new();
        s.add("w", Tensor::ones(&[1]));
        s.add("w", Tensor::ones(&[1]));
    }

    #[test]
    fn var_connects_to_graph_gradients() {
        let mut s = ParamStore::new();
        let w = s.add("w", Tensor::from_vec(vec![2.0, 3.0], &[1, 2]).unwrap());
        let mut g = Graph::new();
        let wv = s.var(&mut g, w);
        let sq = g.mul(wv, wv).unwrap();
        let loss = g.sum_all(sq);
        let grads = g.backward(loss).unwrap();
        assert_eq!(grads.param_grad(w).unwrap().data(), &[4.0, 6.0]);
    }

    #[test]
    fn checkpoint_round_trip() {
        let mut s = ParamStore::new();
        s.add("emb", Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap());
        s.add("bias", Tensor::from_vec(vec![-1.5], &[1]).unwrap());
        let restored = ParamStore::load(&s.save()).unwrap();
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.get(restored.id_of("emb").unwrap()).data(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(restored.get(restored.id_of("bias").unwrap()).data(), &[-1.5]);
    }

    #[test]
    fn checkpoint_wire_format_is_pinned() {
        let mut s = ParamStore::new();
        s.add("w", Tensor::from_vec(vec![1.5, -2.0], &[1, 2]).unwrap());
        s.add("b", Tensor::from_vec(vec![0.25], &[1]).unwrap());
        #[rustfmt::skip]
        let want: [u8; 70] = [
            2, 0, 0, 0, 0, 0, 0, 0,                   // parameter count (u64)
            1, 0, 0, 0, b'w',                         // name length (u32), name
            0x4E, 0x41, 0x53, 0x56,                   // magic "VSAN" (u32)
            2, 0, 0, 0,                               // rank (u32)
            1, 0, 0, 0, 0, 0, 0, 0,                   // dims (u64 each)
            2, 0, 0, 0, 0, 0, 0, 0,
            0x00, 0x00, 0xC0, 0x3F,                   // 1.5 (f32)
            0x00, 0x00, 0x00, 0xC0,                   // -2.0
            1, 0, 0, 0, b'b',
            0x4E, 0x41, 0x53, 0x56,
            1, 0, 0, 0,
            1, 0, 0, 0, 0, 0, 0, 0,
            0x00, 0x00, 0x80, 0x3E,                   // 0.25
        ];
        let blob = s.save();
        assert_eq!(&blob[..], &want[..]);
        let back = ParamStore::load(&blob).unwrap();
        assert_eq!(back.len(), s.len());
        for ((_, name, t), (_, back_name, back_t)) in s.iter().zip(back.iter()) {
            assert_eq!(name, back_name);
            assert_eq!(t, back_t);
        }
    }

    #[test]
    fn load_values_matches_by_name() {
        let mut a = ParamStore::new();
        a.add("w", Tensor::ones(&[2]));
        a.add("extra", Tensor::ones(&[1]));
        let mut b = ParamStore::new();
        b.add("w", Tensor::zeros(&[2]));
        let restored = b.load_values(&a.save()).unwrap();
        assert_eq!(restored, 1);
        assert_eq!(b.get(b.id_of("w").unwrap()).data(), &[1.0, 1.0]);
    }

    #[test]
    fn load_values_rejects_shape_mismatch() {
        let mut a = ParamStore::new();
        a.add("w", Tensor::ones(&[3]));
        let mut b = ParamStore::new();
        b.add("w", Tensor::zeros(&[2]));
        assert!(b.load_values(&a.save()).is_err());
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(ParamStore::load(&[1, 2, 3]).is_err());
        let mut s = ParamStore::new();
        s.add("w", Tensor::ones(&[4]));
        let blob = s.save();
        assert!(ParamStore::load(&blob[..blob.len() - 3]).is_err());
        // Two entries under one name: the second would trip `add`'s
        // duplicate assert.
        let mut twice = 2u64.to_le_bytes().to_vec();
        for _ in 0..2 {
            twice.extend_from_slice(&blob[8..]);
        }
        assert!(ParamStore::load(&twice).unwrap_err().contains("duplicate parameter name"));
        // A whole checkpoint followed by anything else is not a checkpoint.
        let mut tail = blob.clone();
        tail.extend_from_slice(&[0xAB; 32]);
        assert_eq!(ParamStore::load(&tail).unwrap_err(), "32 bytes after the last parameter");
    }
}
