//! The Bethencourt–Sahai–Waters CP-ABE scheme (IEEE S&P 2007).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex};

use rand::Rng;
use sp_pairing::{Gt, LineCache, Pairing, Scalar, G1};
use sp_par::parallel_map;
use sp_shamir::{Polynomial, ShamirScheme};
use sp_wire::{Reader, Writer};

use crate::access_tree::{AccessNode, AccessTree};
use crate::error::AbeError;

/// Fixed [`Gt`] encoding length (`c0 ‖ c1` over the 512-bit base field).
const GT_LEN: usize = 128;

/// The CP-ABE public key: `(h = g^β, f = g^{1/β}, e(g,g)^α)`; the
/// generator `g` itself is part of the shared pairing parameters.
#[derive(Clone, PartialEq, Eq)]
pub struct PublicKey {
    h: G1,
    f: G1,
    e_gg_alpha: Gt,
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("PublicKey(h, f, e(g,g)^alpha)")
    }
}

/// The master secret `(β, g^α)`.
///
/// In the paper's protocol the sharer *publishes* `MK` alongside `PK` so
/// receivers can run `KeyGen` themselves — access control comes from
/// knowing the context attributes, not from withholding the master key.
#[derive(Clone, PartialEq, Eq)]
pub struct MasterKey {
    beta: Scalar,
    g_alpha: G1,
}

impl fmt::Debug for MasterKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("MasterKey(<secret>)")
    }
}

/// One per-attribute component of a private key.
#[derive(Clone, PartialEq, Eq, Debug)]
struct KeyComponent {
    attribute: String,
    d_j: G1,
    d_j_prime: G1,
}

/// A private key for an attribute set.
#[derive(Clone, PartialEq, Eq)]
pub struct PrivateKey {
    d: G1,
    components: Vec<KeyComponent>,
}

impl PrivateKey {
    /// The attributes this key identifies with.
    pub fn attributes(&self) -> Vec<&str> {
        self.components.iter().map(|c| c.attribute.as_str()).collect()
    }
}

impl fmt::Debug for PrivateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PrivateKey({} attributes)", self.components.len())
    }
}

/// A CP-ABE ciphertext: the access tree, `C̃ = m·e(g,g)^{αs}`, `C = h^s`,
/// and per-leaf components in depth-first leaf order.
#[derive(Clone, PartialEq, Eq)]
pub struct Ciphertext {
    tree: AccessTree,
    c_tilde: Gt,
    c: G1,
    leaf_cts: Vec<(G1, G1)>,
}

impl Ciphertext {
    /// The embedded access tree.
    pub fn tree(&self) -> &AccessTree {
        &self.tree
    }

    /// Replaces the embedded tree with one of identical shape.
    ///
    /// This is the mechanism behind the paper's `Perturb` and
    /// `Reconstruct` subroutines (§V-B): the group-element components are
    /// opaque and stay put, only the human-readable tree labels change.
    ///
    /// # Errors
    ///
    /// Returns [`AbeError::TreeMismatch`] if the gate structure differs.
    pub fn with_tree(&self, tree: AccessTree) -> Result<Ciphertext, AbeError> {
        if !self.tree.same_shape(&tree) {
            return Err(AbeError::TreeMismatch);
        }
        Ok(Ciphertext {
            tree,
            c_tilde: self.c_tilde.clone(),
            c: self.c.clone(),
            leaf_cts: self.leaf_cts.clone(),
        })
    }
}

impl fmt::Debug for Ciphertext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ciphertext({} leaves, tree = {:?})", self.leaf_cts.len(), self.tree)
    }
}

/// The CP-ABE scheme, bound to pairing parameters.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Clone)]
pub struct CpAbe {
    pairing: Pairing,
    shamir: ShamirScheme,
    /// Memoized attribute hash points `attr → H(attr)`. Try-and-increment
    /// hashing plus cofactor clearing dominates Encrypt/KeyGen for
    /// repeated attributes; clones share the cache.
    attr_cache: Arc<Mutex<HashMap<String, G1>>>,
}

impl fmt::Debug for CpAbe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cached = self.attr_cache.lock().map(|c| c.len()).unwrap_or(0);
        write!(f, "CpAbe({:?}, {cached} cached attribute hashes)", self.pairing)
    }
}

impl CpAbe {
    /// Creates a scheme over the given pairing.
    pub fn new(pairing: Pairing) -> Self {
        let shamir = ShamirScheme::new(pairing.zr().clone());
        Self { pairing, shamir, attr_cache: Arc::new(Mutex::new(HashMap::new())) }
    }

    /// Scheme over the production 512-bit parameters.
    pub fn default_params() -> Self {
        Self::new(Pairing::default_params())
    }

    /// Scheme over small cached test parameters (not cryptographically
    /// strong).
    pub fn insecure_test_params() -> Self {
        Self::new(Pairing::insecure_test_params())
    }

    /// The underlying pairing.
    pub fn pairing(&self) -> &Pairing {
        &self.pairing
    }

    /// Samples a uniformly random `Gt` message (the payload a hybrid
    /// scheme derives its symmetric key from).
    pub fn random_message<R: Rng + ?Sized>(&self, rng: &mut R) -> Gt {
        self.pairing.random_gt(rng)
    }

    /// `Setup`: produces the public key and master secret.
    pub fn setup<R: Rng + ?Sized>(&self, rng: &mut R) -> (PublicKey, MasterKey) {
        let alpha = self.pairing.random_nonzero_scalar(rng);
        let beta = self.pairing.random_nonzero_scalar(rng);
        let beta_inv = beta.invert().expect("nonzero");
        let h = self.pairing.mul_generator(&beta);
        let f = self.pairing.mul_generator(&beta_inv);
        let g_alpha = self.pairing.mul_generator(&alpha);
        // e(g, g^α) = e(g, g)^α: one Gt exponentiation, not a pairing.
        let e_gg_alpha = self.pairing.gt_generator().pow_scalar(&alpha);
        (PublicKey { h, f, e_gg_alpha }, MasterKey { beta, g_alpha })
    }

    /// `Encrypt(PK, m, τ)`: encrypts the group element `m` under the
    /// access tree `τ`.
    ///
    /// # Errors
    ///
    /// Returns [`AbeError::BadTree`] if the tree is structurally invalid
    /// (cannot happen for trees built through [`AccessTree`]'s
    /// constructors).
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        pk: &PublicKey,
        m: &Gt,
        tree: &AccessTree,
        rng: &mut R,
    ) -> Result<Ciphertext, AbeError> {
        let s = self.pairing.random_nonzero_scalar(rng);

        // Share s down the tree; collect per-leaf secret shares in DFS order.
        let mut leaf_shares: Vec<Scalar> = Vec::with_capacity(tree.leaf_count());
        self.share_secret(tree.root(), &s, &mut leaf_shares, rng)?;

        let c_tilde = m.mul(&pk.e_gg_alpha.pow_scalar(&s));
        let c = self.pairing.mul(&pk.h, &s);
        // Attribute hashes resolve through the memo cache (serial — cheap
        // on a hit); the per-leaf exponentiations then fan out.
        let jobs: Vec<(G1, Scalar)> = tree
            .leaves()
            .iter()
            .zip(&leaf_shares)
            .map(|(attr, share)| (self.hash_attribute(attr), share.clone()))
            .collect();
        let leaf_cts = parallel_map(&jobs, |(h_attr, share)| {
            (self.pairing.mul_generator(share), self.pairing.mul(h_attr, share))
        });

        Ok(Ciphertext { tree: tree.clone(), c_tilde, c, leaf_cts })
    }

    /// The pre-optimization `Encrypt`: textbook double-and-add ladders,
    /// fresh (uncached) attribute hashing, serial leaf loop.
    ///
    /// Given the same RNG stream it produces a ciphertext **identical** to
    /// [`CpAbe::encrypt`]'s — the differential tests rely on that — and it
    /// is the "before" baseline the crypto benchmarks report speedups
    /// against.
    ///
    /// # Errors
    ///
    /// Returns [`AbeError::BadTree`] under the same conditions as
    /// [`CpAbe::encrypt`].
    pub fn encrypt_reference<R: Rng + ?Sized>(
        &self,
        pk: &PublicKey,
        m: &Gt,
        tree: &AccessTree,
        rng: &mut R,
    ) -> Result<Ciphertext, AbeError> {
        let s = self.pairing.random_nonzero_scalar(rng);
        let mut leaf_shares: Vec<Scalar> = Vec::with_capacity(tree.leaf_count());
        self.share_secret(tree.root(), &s, &mut leaf_shares, rng)?;

        let c_tilde = m.mul(&pk.e_gg_alpha.pow_scalar(&s));
        let c = pk.h.mul_uint(&s.to_uint());
        let g = self.pairing.generator();
        let leaf_cts = tree
            .leaves()
            .iter()
            .zip(&leaf_shares)
            .map(|(attr, share)| {
                let c_y = g.mul_uint(&share.to_uint());
                let c_y_prime = self.hash_attribute_uncached(attr).mul_uint(&share.to_uint());
                (c_y, c_y_prime)
            })
            .collect();

        Ok(Ciphertext { tree: tree.clone(), c_tilde, c, leaf_cts })
    }

    fn share_secret<R: Rng + ?Sized>(
        &self,
        node: &AccessNode,
        value: &Scalar,
        out: &mut Vec<Scalar>,
        rng: &mut R,
    ) -> Result<(), AbeError> {
        let zr = self.pairing.zr();
        match node {
            AccessNode::Leaf { .. } => {
                out.push(value.clone());
                Ok(())
            }
            AccessNode::Threshold { k, children } => {
                let poly = Polynomial::random_with_constant(value.clone(), *k, zr, rng);
                for (i, child) in children.iter().enumerate() {
                    let x = zr.from_u64(i as u64 + 1);
                    self.share_secret(child, &poly.eval(&x), out, rng)?;
                }
                Ok(())
            }
        }
    }

    /// `KeyGen(MK, S)`: derives a private key for attribute set `S`.
    pub fn keygen<R: Rng + ?Sized>(
        &self,
        mk: &MasterKey,
        attributes: &[String],
        rng: &mut R,
    ) -> PrivateKey {
        let r = self.pairing.random_nonzero_scalar(rng);
        let beta_inv = mk.beta.invert().expect("nonzero");
        // D = g^{(α + r)/β}
        let g_r = self.pairing.mul_generator(&r);
        let d = self.pairing.mul(&mk.g_alpha.add(&g_r), &beta_inv);
        // Per-attribute randomness is drawn serially (the RNG is borrowed
        // exclusively, and the draw order must match the reference path);
        // the group operations then fan out.
        let jobs: Vec<(String, Scalar, G1)> = attributes
            .iter()
            .map(|attr| {
                let r_j = self.pairing.random_nonzero_scalar(rng);
                (attr.clone(), r_j, self.hash_attribute(attr))
            })
            .collect();
        let components = parallel_map(&jobs, |(attr, r_j, h_attr)| KeyComponent {
            attribute: attr.clone(),
            d_j: g_r.add(&self.pairing.mul(h_attr, r_j)),
            d_j_prime: self.pairing.mul_generator(r_j),
        });
        PrivateKey { d, components }
    }

    /// The pre-optimization `KeyGen` (textbook ladders, uncached hashing,
    /// serial loop); same RNG stream ⇒ identical key to [`CpAbe::keygen`].
    pub fn keygen_reference<R: Rng + ?Sized>(
        &self,
        mk: &MasterKey,
        attributes: &[String],
        rng: &mut R,
    ) -> PrivateKey {
        let g = self.pairing.generator();
        let r = self.pairing.random_nonzero_scalar(rng);
        let beta_inv = mk.beta.invert().expect("nonzero");
        let g_r = g.mul_uint(&r.to_uint());
        let d = mk.g_alpha.add(&g_r).mul_uint(&beta_inv.to_uint());
        let components = attributes
            .iter()
            .map(|attr| {
                let r_j = self.pairing.random_nonzero_scalar(rng);
                let d_j = g_r.add(&self.hash_attribute_uncached(attr).mul_uint(&r_j.to_uint()));
                let d_j_prime = g.mul_uint(&r_j.to_uint());
                KeyComponent { attribute: attr.clone(), d_j, d_j_prime }
            })
            .collect();
        PrivateKey { d, components }
    }

    /// `Delegate(SK, S̃)`: derives a re-randomized key for a subset of the
    /// key's attributes (BSW07 §4.2), without the master key.
    ///
    /// # Errors
    ///
    /// Returns [`AbeError::PolicyNotSatisfied`] if `subset` is not
    /// contained in the key's attributes.
    pub fn delegate<R: Rng + ?Sized>(
        &self,
        pk: &PublicKey,
        sk: &PrivateKey,
        subset: &[String],
        rng: &mut R,
    ) -> Result<PrivateKey, AbeError> {
        let r_tilde = self.pairing.random_nonzero_scalar(rng);
        let g_rt = self.pairing.mul_generator(&r_tilde);
        let d = sk.d.add(&self.pairing.mul(&pk.f, &r_tilde));
        let components = subset
            .iter()
            .map(|attr| {
                let comp = sk
                    .components
                    .iter()
                    .find(|c| &c.attribute == attr)
                    .ok_or(AbeError::PolicyNotSatisfied)?;
                let r_k = self.pairing.random_nonzero_scalar(rng);
                let d_j =
                    comp.d_j.add(&g_rt).add(&self.pairing.mul(&self.hash_attribute(attr), &r_k));
                let d_j_prime = comp.d_j_prime.add(&self.pairing.mul_generator(&r_k));
                Ok(KeyComponent { attribute: attr.clone(), d_j, d_j_prime })
            })
            .collect::<Result<Vec<_>, AbeError>>()?;
        Ok(PrivateKey { d, components })
    }

    /// `Decrypt(CT, SK)`: recovers the message if the key's attributes
    /// satisfy the ciphertext's access tree.
    ///
    /// The recursive `DecryptNode` of the paper is flattened: each used
    /// leaf contributes `[e(D_j, C_y)/e(D'_j, C'_y)]^{c_j}` where `c_j` is
    /// the product of Lagrange coefficients along its root path, so the
    /// whole tree is one product of pairings. Folding `c_j` into the `G1`
    /// arguments (`e(X, Y)^c = e([c]X, Y)`) turns `k` pairing ratios plus
    /// `k` `Gt` exponentiations into `2k` scalar multiplications (cheap,
    /// parallel) and **one** multi-pairing with **one** final
    /// exponentiation.
    ///
    /// # Errors
    ///
    /// Returns [`AbeError::PolicyNotSatisfied`] if the key's attributes do
    /// not satisfy the tree.
    pub fn decrypt(&self, ct: &Ciphertext, sk: &PrivateKey) -> Result<Gt, AbeError> {
        let attrs: HashSet<String> = sk.components.iter().map(|c| c.attribute.clone()).collect();
        if !ct.tree.satisfied_by(&attrs) {
            return Err(AbeError::PolicyNotSatisfied);
        }
        let mut selected: Vec<(usize, Scalar)> = Vec::new();
        let mut leaf_index = 0usize;
        let one = self.pairing.zr().one();
        self.collect_leaf_coefficients(
            ct.tree.root(),
            &attrs,
            &one,
            &mut leaf_index,
            &mut selected,
        )?;

        let leaves = ct.tree.leaves();
        let jobs: Vec<(G1, G1, Scalar, usize)> = selected
            .into_iter()
            .map(|(idx, coeff)| {
                let comp = sk
                    .components
                    .iter()
                    .find(|c| c.attribute == leaves[idx])
                    .expect("selected leaves carry key attributes");
                (comp.d_j.clone(), comp.d_j_prime.clone(), coeff, idx)
            })
            .collect();
        let folded: Vec<(G1, G1, usize)> = parallel_map(&jobs, |(d_j, d_j_prime, coeff, idx)| {
            (self.pairing.mul(d_j, coeff), self.pairing.mul(d_j_prime, coeff), *idx)
        });
        let num: Vec<(&G1, &G1)> =
            folded.iter().map(|(d, _, idx)| (d, &ct.leaf_cts[*idx].0)).collect();
        let mut den: Vec<(&G1, &G1)> =
            folded.iter().map(|(_, dp, idx)| (dp, &ct.leaf_cts[*idx].1)).collect();
        den.push((&ct.c, &sk.d));
        // m = C̃ · Π e([c_j]D_j, C_y) / (Π e([c_j]D'_j, C'_y) · e(C, D))
        let prod =
            self.pairing.pair_product(&num, &den).map_err(|_| AbeError::DegeneratePairing)?;
        Ok(ct.c_tilde.mul(&prod))
    }

    /// [`CpAbe::decrypt`] with the Miller walks of the ciphertext-side
    /// points (`C_y`, `C'_y`, `C` — the puzzle's fixed public inputs)
    /// replayed from `cache` under the opaque `tag`.
    ///
    /// The pairing is symmetric, so each ratio term is evaluated with the
    /// *ciphertext* point in the first (cached) slot and the per-key folded
    /// point in the second: a warm decryption skips every Jacobian walk
    /// over the ciphertext components. The result is the same group
    /// element as [`CpAbe::decrypt`].
    ///
    /// # Errors
    ///
    /// Returns [`AbeError::PolicyNotSatisfied`] if the key's attributes do
    /// not satisfy the tree.
    pub fn decrypt_cached(
        &self,
        cache: &LineCache,
        tag: &[u8],
        ct: &Ciphertext,
        sk: &PrivateKey,
    ) -> Result<Gt, AbeError> {
        let attrs: HashSet<String> = sk.components.iter().map(|c| c.attribute.clone()).collect();
        if !ct.tree.satisfied_by(&attrs) {
            return Err(AbeError::PolicyNotSatisfied);
        }
        let mut selected: Vec<(usize, Scalar)> = Vec::new();
        let mut leaf_index = 0usize;
        let one = self.pairing.zr().one();
        self.collect_leaf_coefficients(
            ct.tree.root(),
            &attrs,
            &one,
            &mut leaf_index,
            &mut selected,
        )?;

        let leaves = ct.tree.leaves();
        let jobs: Vec<(G1, G1, Scalar, usize)> = selected
            .into_iter()
            .map(|(idx, coeff)| {
                let comp = sk
                    .components
                    .iter()
                    .find(|c| c.attribute == leaves[idx])
                    .expect("selected leaves carry key attributes");
                (comp.d_j.clone(), comp.d_j_prime.clone(), coeff, idx)
            })
            .collect();
        let folded: Vec<(G1, G1, usize)> = parallel_map(&jobs, |(d_j, d_j_prime, coeff, idx)| {
            (self.pairing.mul(d_j, coeff), self.pairing.mul(d_j_prime, coeff), *idx)
        });
        // Fixed ciphertext-side points go in the first slot — that is the
        // argument whose line precomputation the cache stores and replays.
        let num: Vec<(&G1, &G1)> =
            folded.iter().map(|(d, _, idx)| (&ct.leaf_cts[*idx].0, d)).collect();
        let mut den: Vec<(&G1, &G1)> =
            folded.iter().map(|(_, dp, idx)| (&ct.leaf_cts[*idx].1, dp)).collect();
        den.push((&ct.c, &sk.d));
        let prod = self
            .pairing
            .pair_product_cached(cache, tag, &num, &den)
            .map_err(|_| AbeError::DegeneratePairing)?;
        Ok(ct.c_tilde.mul(&prod))
    }

    /// Walks a *satisfied* subtree mirroring the reference `DecryptNode`
    /// child selection (the first `k` satisfied children in order) and
    /// records, for each used leaf, the product of Lagrange coefficients
    /// along its path. `leaf_index` advances through skipped subtrees so
    /// recorded indices line up with `leaf_cts`.
    fn collect_leaf_coefficients(
        &self,
        node: &AccessNode,
        attrs: &HashSet<String>,
        coeff: &Scalar,
        leaf_index: &mut usize,
        out: &mut Vec<(usize, Scalar)>,
    ) -> Result<(), AbeError> {
        fn satisfied(node: &AccessNode, attrs: &HashSet<String>) -> bool {
            match node {
                AccessNode::Leaf { attribute } => attrs.contains(attribute),
                AccessNode::Threshold { k, children } => {
                    children.iter().filter(|c| satisfied(c, attrs)).count() >= *k
                }
            }
        }
        fn leaf_count(node: &AccessNode) -> usize {
            match node {
                AccessNode::Leaf { .. } => 1,
                AccessNode::Threshold { children, .. } => children.iter().map(leaf_count).sum(),
            }
        }
        match node {
            AccessNode::Leaf { .. } => {
                out.push((*leaf_index, coeff.clone()));
                *leaf_index += 1;
                Ok(())
            }
            AccessNode::Threshold { k, children } => {
                let chosen: Vec<usize> = children
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| satisfied(c, attrs))
                    .map(|(i, _)| i)
                    .take(*k)
                    .collect();
                debug_assert_eq!(chosen.len(), *k, "caller guarantees this subtree is satisfied");
                let zr = self.pairing.zr();
                let xs: Vec<Scalar> = chosen.iter().map(|&i| zr.from_u64(i as u64 + 1)).collect();
                let gammas = self
                    .shamir
                    .lagrange_coefficients_at_zero(&xs)
                    .map_err(|_| AbeError::PolicyNotSatisfied)?;
                let mut pos = 0usize;
                for (i, child) in children.iter().enumerate() {
                    if pos < chosen.len() && chosen[pos] == i {
                        let child_coeff = coeff * &gammas[pos];
                        self.collect_leaf_coefficients(
                            child,
                            attrs,
                            &child_coeff,
                            leaf_index,
                            out,
                        )?;
                        pos += 1;
                    } else {
                        *leaf_index += leaf_count(child);
                    }
                }
                Ok(())
            }
        }
    }

    /// The pre-optimization `Decrypt`: recursive `DecryptNode` with one
    /// affine-Miller pairing ratio per satisfied leaf and a `Gt`
    /// exponentiation per Lagrange coefficient. Differential-test oracle
    /// (it must return the *same group element* as [`CpAbe::decrypt`]) and
    /// benchmark baseline.
    ///
    /// # Errors
    ///
    /// Returns [`AbeError::PolicyNotSatisfied`] if the key's attributes do
    /// not satisfy the tree.
    pub fn decrypt_reference(&self, ct: &Ciphertext, sk: &PrivateKey) -> Result<Gt, AbeError> {
        let attrs: HashSet<String> = sk.components.iter().map(|c| c.attribute.clone()).collect();
        if !ct.tree.satisfied_by(&attrs) {
            return Err(AbeError::PolicyNotSatisfied);
        }
        let mut leaf_index = 0usize;
        let a = self
            .decrypt_node(ct.tree.root(), ct, sk, &mut leaf_index)
            .ok_or(AbeError::PolicyNotSatisfied)?;
        // m = C̃ · A / e(C, D)
        let e_c_d =
            self.pairing.pair_reference(&ct.c, &sk.d).map_err(|_| AbeError::DegeneratePairing)?;
        Ok(ct.c_tilde.mul(&a).div(&e_c_d))
    }

    /// Recursive `DecryptNode`; `leaf_index` tracks the DFS leaf cursor so
    /// tree nodes line up with `leaf_cts`.
    fn decrypt_node(
        &self,
        node: &AccessNode,
        ct: &Ciphertext,
        sk: &PrivateKey,
        leaf_index: &mut usize,
    ) -> Option<Gt> {
        match node {
            AccessNode::Leaf { attribute } => {
                let idx = *leaf_index;
                *leaf_index += 1;
                let comp = sk.components.iter().find(|c| &c.attribute == attribute)?;
                let (c_y, c_y_prime) = &ct.leaf_cts[idx];
                // e(D_j, C_y) / e(D'_j, C'_y) = e(g,g)^{r·q_y(0)},
                // computed with one shared final exponentiation.
                self.pairing.pair_ratio_reference(&comp.d_j, c_y, &comp.d_j_prime, c_y_prime).ok()
            }
            AccessNode::Threshold { k, children } => {
                // Evaluate every child (advancing the leaf cursor through
                // unsatisfied subtrees too), keep the satisfied ones.
                let mut satisfied: Vec<(usize, Gt)> = Vec::new();
                for (i, child) in children.iter().enumerate() {
                    if let Some(f) = self.decrypt_node(child, ct, sk, leaf_index) {
                        satisfied.push((i, f));
                    }
                }
                if satisfied.len() < *k {
                    return None;
                }
                satisfied.truncate(*k);
                // Lagrange combination in the exponent at x = 0 over child
                // indices (1-based).
                let zr = self.pairing.zr();
                let xs: Vec<Scalar> =
                    satisfied.iter().map(|(i, _)| zr.from_u64(*i as u64 + 1)).collect();
                let zero = zr.zero();
                let mut acc = self.pairing.gt_one();
                for (j, (_, f)) in satisfied.iter().enumerate() {
                    let gamma = self
                        .shamir
                        .lagrange_coefficient(&xs, j, &zero)
                        .expect("child indices are distinct");
                    acc = acc.mul(&f.pow_scalar(&gamma));
                }
                Some(acc)
            }
        }
    }

    /// `H : {0,1}* → G1`, the attribute hash, memoized per scheme
    /// instance (the paper's protocols hash the same few context
    /// attributes over and over across Encrypt/KeyGen calls).
    pub fn hash_attribute(&self, attribute: &str) -> G1 {
        if let Ok(cache) = self.attr_cache.lock() {
            if let Some(p) = cache.get(attribute) {
                return p.clone();
            }
        }
        let p = self.hash_attribute_uncached(attribute);
        if let Ok(mut cache) = self.attr_cache.lock() {
            cache.insert(attribute.to_owned(), p.clone());
        }
        p
    }

    /// The attribute hash without memoization (reference paths hash fresh
    /// every time, like the pre-optimization code did).
    fn hash_attribute_uncached(&self, attribute: &str) -> G1 {
        self.pairing.hash_to_g1(&[b"sp-abe/attr/v1/", attribute.as_bytes()].concat())
    }

    // ------------------------------------------------------------------
    // Wire encodings (byte-accurate transfer sizes for the OSN simulator).
    // ------------------------------------------------------------------

    /// Encodes the public key.
    pub fn encode_public_key(&self, pk: &PublicKey) -> Vec<u8> {
        let cap = 12 + pk.h.encoded_len() + pk.f.encoded_len() + GT_LEN;
        let mut w = Writer::with_capacity(cap);
        w.bytes(&pk.h.to_bytes());
        w.bytes(&pk.f.to_bytes());
        w.bytes(&pk.e_gg_alpha.to_bytes());
        let out = w.finish().to_vec();
        debug_assert_eq!(out.len(), cap);
        out
    }

    /// Decodes a public key.
    ///
    /// # Errors
    ///
    /// Returns [`AbeError::BadEncoding`] for malformed buffers.
    pub fn decode_public_key(&self, bytes: &[u8]) -> Result<PublicKey, AbeError> {
        let mut r = Reader::new(bytes);
        let h = self
            .pairing
            .g1_from_bytes(r.bytes().map_err(|_| AbeError::BadEncoding)?)
            .map_err(|_| AbeError::BadEncoding)?;
        let f = self
            .pairing
            .g1_from_bytes(r.bytes().map_err(|_| AbeError::BadEncoding)?)
            .map_err(|_| AbeError::BadEncoding)?;
        let e_gg_alpha = self
            .pairing
            .gt_from_bytes(r.bytes().map_err(|_| AbeError::BadEncoding)?)
            .map_err(|_| AbeError::BadEncoding)?;
        r.expect_end().map_err(|_| AbeError::BadEncoding)?;
        Ok(PublicKey { h, f, e_gg_alpha })
    }

    /// Encodes the master key.
    pub fn encode_master_key(&self, mk: &MasterKey) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(&mk.beta.to_be_bytes());
        w.bytes(&mk.g_alpha.to_bytes());
        w.finish().to_vec()
    }

    /// Decodes a master key.
    ///
    /// # Errors
    ///
    /// Returns [`AbeError::BadEncoding`] for malformed buffers.
    pub fn decode_master_key(&self, bytes: &[u8]) -> Result<MasterKey, AbeError> {
        let mut r = Reader::new(bytes);
        let beta = self
            .pairing
            .zr()
            .from_be_bytes(r.bytes().map_err(|_| AbeError::BadEncoding)?)
            .map_err(|_| AbeError::BadEncoding)?;
        let g_alpha = self
            .pairing
            .g1_from_bytes(r.bytes().map_err(|_| AbeError::BadEncoding)?)
            .map_err(|_| AbeError::BadEncoding)?;
        r.expect_end().map_err(|_| AbeError::BadEncoding)?;
        Ok(MasterKey { beta, g_alpha })
    }

    /// Encodes a ciphertext (tree + group elements).
    ///
    /// The output buffer is pre-sized to its exact final length and leaf
    /// points stream through one reused scratch buffer, so encoding a
    /// large ciphertext performs no doubling reallocations.
    pub fn encode_ciphertext(&self, ct: &Ciphertext) -> Vec<u8> {
        let cap = ct.tree.encoded_len()
            + 4
            + GT_LEN
            + 4
            + ct.c.encoded_len()
            + 4
            + ct.leaf_cts
                .iter()
                .map(|(c_y, c_y_prime)| 8 + c_y.encoded_len() + c_y_prime.encoded_len())
                .sum::<usize>();
        let mut w = Writer::with_capacity(cap);
        ct.tree.encode(&mut w);
        w.bytes(&ct.c_tilde.to_bytes());
        w.bytes(&ct.c.to_bytes());
        w.u32(ct.leaf_cts.len() as u32);
        let mut scratch = Vec::with_capacity(ct.c.encoded_len());
        for (c_y, c_y_prime) in &ct.leaf_cts {
            scratch.clear();
            c_y.write_bytes(&mut scratch);
            w.bytes(&scratch);
            scratch.clear();
            c_y_prime.write_bytes(&mut scratch);
            w.bytes(&scratch);
        }
        let out = w.finish().to_vec();
        debug_assert_eq!(out.len(), cap);
        out
    }

    /// Decodes a ciphertext.
    ///
    /// # Errors
    ///
    /// Returns [`AbeError::BadEncoding`] for malformed buffers, including
    /// a leaf-component count that disagrees with the tree.
    pub fn decode_ciphertext(&self, bytes: &[u8]) -> Result<Ciphertext, AbeError> {
        let mut r = Reader::new(bytes);
        let tree = AccessTree::decode(&mut r).map_err(|_| AbeError::BadEncoding)?;
        let c_tilde = self
            .pairing
            .gt_from_bytes(r.bytes().map_err(|_| AbeError::BadEncoding)?)
            .map_err(|_| AbeError::BadEncoding)?;
        let c = self
            .pairing
            .g1_from_bytes(r.bytes().map_err(|_| AbeError::BadEncoding)?)
            .map_err(|_| AbeError::BadEncoding)?;
        let n = r.u32().map_err(|_| AbeError::BadEncoding)? as usize;
        if n != tree.leaf_count() {
            return Err(AbeError::BadEncoding);
        }
        let mut leaf_cts = Vec::with_capacity(n);
        for _ in 0..n {
            let c_y = self
                .pairing
                .g1_from_bytes(r.bytes().map_err(|_| AbeError::BadEncoding)?)
                .map_err(|_| AbeError::BadEncoding)?;
            let c_y_prime = self
                .pairing
                .g1_from_bytes(r.bytes().map_err(|_| AbeError::BadEncoding)?)
                .map_err(|_| AbeError::BadEncoding)?;
            leaf_cts.push((c_y, c_y_prime));
        }
        r.expect_end().map_err(|_| AbeError::BadEncoding)?;
        Ok(Ciphertext { tree, c_tilde, c, leaf_cts })
    }

    /// Encodes a private key.
    pub fn encode_private_key(&self, sk: &PrivateKey) -> Vec<u8> {
        let cap = 8
            + sk.d.encoded_len()
            + sk.components
                .iter()
                .map(|c| 12 + c.attribute.len() + c.d_j.encoded_len() + c.d_j_prime.encoded_len())
                .sum::<usize>();
        let mut w = Writer::with_capacity(cap);
        w.bytes(&sk.d.to_bytes());
        w.u32(sk.components.len() as u32);
        for c in &sk.components {
            w.string(&c.attribute);
            w.bytes(&c.d_j.to_bytes());
            w.bytes(&c.d_j_prime.to_bytes());
        }
        w.finish().to_vec()
    }

    /// Decodes a private key.
    ///
    /// # Errors
    ///
    /// Returns [`AbeError::BadEncoding`] for malformed buffers.
    pub fn decode_private_key(&self, bytes: &[u8]) -> Result<PrivateKey, AbeError> {
        let mut r = Reader::new(bytes);
        let d = self
            .pairing
            .g1_from_bytes(r.bytes().map_err(|_| AbeError::BadEncoding)?)
            .map_err(|_| AbeError::BadEncoding)?;
        let n = r.u32().map_err(|_| AbeError::BadEncoding)? as usize;
        if n > 1 << 20 {
            return Err(AbeError::BadEncoding);
        }
        let mut components = Vec::with_capacity(n);
        for _ in 0..n {
            let attribute = r.string().map_err(|_| AbeError::BadEncoding)?.to_owned();
            let d_j = self
                .pairing
                .g1_from_bytes(r.bytes().map_err(|_| AbeError::BadEncoding)?)
                .map_err(|_| AbeError::BadEncoding)?;
            let d_j_prime = self
                .pairing
                .g1_from_bytes(r.bytes().map_err(|_| AbeError::BadEncoding)?)
                .map_err(|_| AbeError::BadEncoding)?;
            components.push(KeyComponent { attribute, d_j, d_j_prime });
        }
        r.expect_end().map_err(|_| AbeError::BadEncoding)?;
        Ok(PrivateKey { d, components })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn abe() -> CpAbe {
        CpAbe::insecure_test_params()
    }

    fn strings(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn encrypt_decrypt_single_leaf() {
        let abe = abe();
        let mut rng = StdRng::seed_from_u64(80);
        let (pk, mk) = abe.setup(&mut rng);
        let tree = AccessTree::leaf("a");
        let m = abe.random_message(&mut rng);
        let ct = abe.encrypt(&pk, &m, &tree, &mut rng).unwrap();
        let sk = abe.keygen(&mk, &strings(&["a"]), &mut rng);
        assert_eq!(abe.decrypt(&ct, &sk).unwrap(), m);
    }

    #[test]
    fn wrong_attribute_fails() {
        let abe = abe();
        let mut rng = StdRng::seed_from_u64(81);
        let (pk, mk) = abe.setup(&mut rng);
        let tree = AccessTree::leaf("a");
        let m = abe.random_message(&mut rng);
        let ct = abe.encrypt(&pk, &m, &tree, &mut rng).unwrap();
        let sk = abe.keygen(&mk, &strings(&["b"]), &mut rng);
        assert_eq!(abe.decrypt(&ct, &sk).unwrap_err(), AbeError::PolicyNotSatisfied);
    }

    #[test]
    fn threshold_2_of_3() {
        let abe = abe();
        let mut rng = StdRng::seed_from_u64(82);
        let (pk, mk) = abe.setup(&mut rng);
        let tree = AccessTree::threshold(
            2,
            vec![AccessTree::leaf("a"), AccessTree::leaf("b"), AccessTree::leaf("c")],
        )
        .unwrap();
        let m = abe.random_message(&mut rng);
        let ct = abe.encrypt(&pk, &m, &tree, &mut rng).unwrap();
        for good in [&["a", "b"][..], &["b", "c"], &["a", "c"], &["a", "b", "c"]] {
            let sk = abe.keygen(&mk, &strings(good), &mut rng);
            assert_eq!(abe.decrypt(&ct, &sk).unwrap(), m, "attrs = {good:?}");
        }
        for bad in [&["a"][..], &["c"], &["x", "y"], &[]] {
            let sk = abe.keygen(&mk, &strings(bad), &mut rng);
            assert!(abe.decrypt(&ct, &sk).is_err(), "attrs = {bad:?}");
        }
    }

    #[test]
    fn nested_policy() {
        let abe = abe();
        let mut rng = StdRng::seed_from_u64(83);
        let (pk, mk) = abe.setup(&mut rng);
        // (a AND b) OR c
        let tree = AccessTree::or(vec![
            AccessTree::and(vec![AccessTree::leaf("a"), AccessTree::leaf("b")]).unwrap(),
            AccessTree::leaf("c"),
        ])
        .unwrap();
        let m = abe.random_message(&mut rng);
        let ct = abe.encrypt(&pk, &m, &tree, &mut rng).unwrap();
        for good in [&["a", "b"][..], &["c"], &["a", "c"]] {
            let sk = abe.keygen(&mk, &strings(good), &mut rng);
            assert_eq!(abe.decrypt(&ct, &sk).unwrap(), m, "attrs = {good:?}");
        }
        let sk = abe.keygen(&mk, &strings(&["a"]), &mut rng);
        assert!(abe.decrypt(&ct, &sk).is_err());
    }

    #[test]
    fn excess_attributes_are_fine() {
        let abe = abe();
        let mut rng = StdRng::seed_from_u64(84);
        let (pk, mk) = abe.setup(&mut rng);
        let tree = AccessTree::and(vec![AccessTree::leaf("a"), AccessTree::leaf("b")]).unwrap();
        let m = abe.random_message(&mut rng);
        let ct = abe.encrypt(&pk, &m, &tree, &mut rng).unwrap();
        let sk = abe.keygen(&mk, &strings(&["z", "a", "q", "b", "w"]), &mut rng);
        assert_eq!(abe.decrypt(&ct, &sk).unwrap(), m);
    }

    #[test]
    fn collusion_resistance() {
        // Alice holds {a}, Bob holds {b}; the policy needs both. Neither
        // key alone decrypts, and mixing components across keys must not
        // decrypt either (different blinding r per key).
        let abe = abe();
        let mut rng = StdRng::seed_from_u64(85);
        let (pk, mk) = abe.setup(&mut rng);
        let tree = AccessTree::and(vec![AccessTree::leaf("a"), AccessTree::leaf("b")]).unwrap();
        let m = abe.random_message(&mut rng);
        let ct = abe.encrypt(&pk, &m, &tree, &mut rng).unwrap();
        let alice = abe.keygen(&mk, &strings(&["a"]), &mut rng);
        let bob = abe.keygen(&mk, &strings(&["b"]), &mut rng);
        assert!(abe.decrypt(&ct, &alice).is_err());
        assert!(abe.decrypt(&ct, &bob).is_err());
        // Frankenstein key: Alice's D and a-component + Bob's b-component.
        let franken = PrivateKey {
            d: alice.d.clone(),
            components: vec![alice.components[0].clone(), bob.components[0].clone()],
        };
        match abe.decrypt(&ct, &franken) {
            Err(_) => {}
            Ok(recovered) => assert_ne!(recovered, m, "collusion must not recover the message"),
        }
    }

    #[test]
    fn delegate_subset_works_and_nonsubset_rejected() {
        let abe = abe();
        let mut rng = StdRng::seed_from_u64(86);
        let (pk, mk) = abe.setup(&mut rng);
        let sk = abe.keygen(&mk, &strings(&["a", "b", "c"]), &mut rng);
        let delegated = abe.delegate(&pk, &sk, &strings(&["a", "b"]), &mut rng).unwrap();
        assert_eq!(delegated.attributes(), vec!["a", "b"]);

        let tree = AccessTree::and(vec![AccessTree::leaf("a"), AccessTree::leaf("b")]).unwrap();
        let m = abe.random_message(&mut rng);
        let ct = abe.encrypt(&pk, &m, &tree, &mut rng).unwrap();
        assert_eq!(abe.decrypt(&ct, &delegated).unwrap(), m);

        // But the delegated key lost "c".
        let tree_c = AccessTree::leaf("c");
        let ct_c = abe.encrypt(&pk, &m, &tree_c, &mut rng).unwrap();
        assert!(abe.decrypt(&ct_c, &delegated).is_err());

        assert_eq!(
            abe.delegate(&pk, &sk, &strings(&["a", "zzz"]), &mut rng).unwrap_err(),
            AbeError::PolicyNotSatisfied
        );
    }

    #[test]
    fn tree_replacement_perturb_reconstruct() {
        let abe = abe();
        let mut rng = StdRng::seed_from_u64(87);
        let (pk, mk) = abe.setup(&mut rng);
        let tree = AccessTree::threshold(
            2,
            vec![AccessTree::leaf("a"), AccessTree::leaf("b"), AccessTree::leaf("c")],
        )
        .unwrap();
        let m = abe.random_message(&mut rng);
        let ct = abe.encrypt(&pk, &m, &tree, &mut rng).unwrap();

        // Perturb: relabel leaves; group elements untouched.
        let perturbed_tree = tree.map_leaves(|a| format!("H({a})"));
        let ct_perturbed = ct.with_tree(perturbed_tree).unwrap();
        // A key for the original attributes no longer *satisfies the tree
        // labels*, so decryption refuses.
        let sk = abe.keygen(&mk, &strings(&["a", "b"]), &mut rng);
        assert!(abe.decrypt(&ct_perturbed, &sk).is_err());

        // Reconstruct: put the real labels back; decryption works again.
        let ct_reconstructed = ct_perturbed.with_tree(tree.clone()).unwrap();
        assert_eq!(abe.decrypt(&ct_reconstructed, &sk).unwrap(), m);

        // Mismatched shape is rejected.
        let other = AccessTree::leaf("x");
        assert_eq!(ct.with_tree(other).unwrap_err(), AbeError::TreeMismatch);
    }

    #[test]
    fn serialization_roundtrips() {
        let abe = abe();
        let mut rng = StdRng::seed_from_u64(88);
        let (pk, mk) = abe.setup(&mut rng);
        let tree =
            AccessTree::threshold(1, vec![AccessTree::leaf("a"), AccessTree::leaf("b")]).unwrap();
        let m = abe.random_message(&mut rng);
        let ct = abe.encrypt(&pk, &m, &tree, &mut rng).unwrap();
        let sk = abe.keygen(&mk, &strings(&["a"]), &mut rng);

        let pk2 = abe.decode_public_key(&abe.encode_public_key(&pk)).unwrap();
        assert_eq!(pk2, pk);
        let mk2 = abe.decode_master_key(&abe.encode_master_key(&mk)).unwrap();
        assert_eq!(mk2, mk);
        let ct2 = abe.decode_ciphertext(&abe.encode_ciphertext(&ct)).unwrap();
        assert_eq!(ct2, ct);
        let sk2 = abe.decode_private_key(&abe.encode_private_key(&sk)).unwrap();
        assert_eq!(sk2, sk);

        // Decryption still works across a serialize/deserialize cycle.
        assert_eq!(abe.decrypt(&ct2, &sk2).unwrap(), m);

        // Corruption is caught.
        let mut bad = abe.encode_ciphertext(&ct);
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(abe.decode_ciphertext(&bad).is_err());
        assert!(abe.decode_public_key(&[1, 2, 3]).is_err());
        assert!(abe.decode_master_key(&[]).is_err());
        assert!(abe.decode_private_key(&[0]).is_err());
    }

    #[test]
    fn setup_e_gg_alpha_is_the_pairing_of_g_and_g_alpha() {
        for abe in [abe(), CpAbe::default_params()] {
            let p = abe.pairing();
            for seed in 96..99 {
                let (pk, mk) = abe.setup(&mut StdRng::seed_from_u64(seed));
                let alpha = p.random_nonzero_scalar(&mut StdRng::seed_from_u64(seed));
                let g_alpha = p.mul(p.generator(), &alpha);
                assert_eq!(mk.g_alpha, g_alpha);
                assert_eq!(pk.e_gg_alpha, p.pair(p.generator(), &g_alpha).unwrap());
            }
        }
    }

    #[test]
    fn keygen_randomization_gives_distinct_keys() {
        let abe = abe();
        let mut rng = StdRng::seed_from_u64(89);
        let (_, mk) = abe.setup(&mut rng);
        let sk1 = abe.keygen(&mk, &strings(&["a"]), &mut rng);
        let sk2 = abe.keygen(&mk, &strings(&["a"]), &mut rng);
        assert_ne!(sk1, sk2, "keys must be randomized per KeyGen call");
    }

    #[test]
    fn ciphertext_randomization() {
        let abe = abe();
        let mut rng = StdRng::seed_from_u64(90);
        let (pk, _) = abe.setup(&mut rng);
        let tree = AccessTree::leaf("a");
        let m = abe.random_message(&mut rng);
        let ct1 = abe.encrypt(&pk, &m, &tree, &mut rng).unwrap();
        let ct2 = abe.encrypt(&pk, &m, &tree, &mut rng).unwrap();
        assert_ne!(ct1, ct2, "encryption must be probabilistic");
    }

    #[test]
    fn encrypt_matches_reference_on_same_rng_stream() {
        // Fast Encrypt (fixed-base tables, memoized hashes, parallel leaf
        // map) draws randomness in the same order as the textbook path, so
        // identical seeds must give identical ciphertexts.
        let abe = abe();
        let mut rng = StdRng::seed_from_u64(92);
        let (pk, _) = abe.setup(&mut rng);
        let tree = AccessTree::threshold(
            2,
            vec![
                AccessTree::leaf("a"),
                AccessTree::and(vec![AccessTree::leaf("b"), AccessTree::leaf("c")]).unwrap(),
                AccessTree::leaf("d"),
            ],
        )
        .unwrap();
        let m = abe.random_message(&mut rng);
        let ct_fast = abe.encrypt(&pk, &m, &tree, &mut StdRng::seed_from_u64(7)).unwrap();
        let ct_ref = abe.encrypt_reference(&pk, &m, &tree, &mut StdRng::seed_from_u64(7)).unwrap();
        assert_eq!(ct_fast, ct_ref);
    }

    #[test]
    fn keygen_matches_reference_on_same_rng_stream() {
        let abe = abe();
        let mut rng = StdRng::seed_from_u64(93);
        let (_, mk) = abe.setup(&mut rng);
        let attrs = strings(&["a", "b", "c", "d", "e"]);
        let sk_fast = abe.keygen(&mk, &attrs, &mut StdRng::seed_from_u64(11));
        let sk_ref = abe.keygen_reference(&mk, &attrs, &mut StdRng::seed_from_u64(11));
        assert_eq!(sk_fast, sk_ref);
    }

    #[test]
    fn decrypt_matches_reference_exactly() {
        // The flattened multi-pairing decrypt must return the *same group
        // element* as the recursive per-leaf path, across gate shapes and
        // partially satisfying keys.
        let abe = abe();
        let mut rng = StdRng::seed_from_u64(94);
        let (pk, mk) = abe.setup(&mut rng);
        let tree = AccessTree::threshold(
            2,
            vec![
                AccessTree::or(vec![AccessTree::leaf("a"), AccessTree::leaf("b")]).unwrap(),
                AccessTree::and(vec![AccessTree::leaf("c"), AccessTree::leaf("d")]).unwrap(),
                AccessTree::leaf("e"),
            ],
        )
        .unwrap();
        let m = abe.random_message(&mut rng);
        let ct = abe.encrypt(&pk, &m, &tree, &mut rng).unwrap();
        for attrs in
            [&["a", "c", "d"][..], &["b", "e"], &["a", "b", "c", "d", "e"], &["e", "c", "d"]]
        {
            let sk = abe.keygen(&mk, &strings(attrs), &mut rng);
            let fast = abe.decrypt(&ct, &sk).unwrap();
            let slow = abe.decrypt_reference(&ct, &sk).unwrap();
            assert_eq!(fast, slow, "attrs = {attrs:?}");
            assert_eq!(fast, m, "attrs = {attrs:?}");
        }
        // Both paths refuse unsatisfying keys.
        let sk = abe.keygen(&mk, &strings(&["a", "c"]), &mut rng);
        assert!(abe.decrypt(&ct, &sk).is_err());
        assert!(abe.decrypt_reference(&ct, &sk).is_err());
    }

    #[test]
    fn decrypt_cached_matches_uncached() {
        // Cold (cache misses) and warm (replayed lines) decryptions must
        // both return the exact group element `decrypt` produces, and the
        // warm pass must actually hit the cache.
        let abe = abe();
        let mut rng = StdRng::seed_from_u64(95);
        let (pk, mk) = abe.setup(&mut rng);
        let tree = AccessTree::threshold(
            2,
            vec![AccessTree::leaf("a"), AccessTree::leaf("b"), AccessTree::leaf("c")],
        )
        .unwrap();
        let m = abe.random_message(&mut rng);
        let ct = abe.encrypt(&pk, &m, &tree, &mut rng).unwrap();
        let sk = abe.keygen(&mk, &strings(&["a", "c"]), &mut rng);

        let cache = LineCache::new();
        let plain = abe.decrypt(&ct, &sk).unwrap();
        let cold = abe.decrypt_cached(&cache, b"pz-1", &ct, &sk).unwrap();
        let before = sp_pairing::stats::snapshot();
        let warm = abe.decrypt_cached(&cache, b"pz-1", &ct, &sk).unwrap();
        let after = sp_pairing::stats::snapshot();
        assert_eq!(cold, plain);
        assert_eq!(warm, plain);
        assert_eq!(plain, m);
        // 2 leaves used → C_a, C'_a, C_c, C'_c, plus C: five cached walks.
        assert!(after.line_cache_hits - before.line_cache_hits >= 5);
        assert_eq!(after.line_cache_misses, before.line_cache_misses);

        // A different key against the same warmed puzzle also agrees.
        let sk2 = abe.keygen(&mk, &strings(&["a", "b"]), &mut rng);
        assert_eq!(abe.decrypt_cached(&cache, b"pz-1", &ct, &sk2).unwrap(), m);

        // Unsatisfying keys are refused before touching the cache.
        let sk3 = abe.keygen(&mk, &strings(&["a"]), &mut rng);
        assert!(abe.decrypt_cached(&cache, b"pz-1", &ct, &sk3).is_err());

        // Invalidation drops the puzzle's entries; re-decryption recomputes
        // and still agrees.
        assert!(cache.invalidate(b"pz-1") >= 5);
        assert_eq!(abe.decrypt_cached(&cache, b"pz-1", &ct, &sk).unwrap(), m);
    }

    #[test]
    fn hash_attribute_memoization_is_transparent() {
        let abe = abe();
        let first = abe.hash_attribute("attr-x");
        let second = abe.hash_attribute("attr-x");
        assert_eq!(first, second);
        assert_eq!(first, abe.hash_attribute_uncached("attr-x"));
        // Clones share the cache and agree.
        assert_eq!(abe.clone().hash_attribute("attr-x"), first);
    }

    #[test]
    fn paper_context_tree_with_k_1_and_n_2() {
        // The evaluation sweeps from N = 2 with k = 1 ("CP-ABE does not
        // support (1,1)"), so this is the smallest measured configuration.
        let abe = abe();
        let mut rng = StdRng::seed_from_u64(91);
        let (pk, mk) = abe.setup(&mut rng);
        let pairs: Vec<(String, String)> =
            vec![("q1".into(), "a1".into()), ("q2".into(), "a2".into())];
        let tree = AccessTree::context_tree(1, &pairs).unwrap();
        let m = abe.random_message(&mut rng);
        let ct = abe.encrypt(&pk, &m, &tree, &mut rng).unwrap();
        let attr = crate::access_tree::encode_qa_attribute("q2", "a2");
        let sk = abe.keygen(&mk, &[attr], &mut rng);
        assert_eq!(abe.decrypt(&ct, &sk).unwrap(), m);
    }
}
