//! Observations kept once.
//!
//! One tuning interval yields one joint input row `[θ ‖ c]`: the normalized
//! configuration followed by the context. A cluster manager's repository, the windows of
//! its per-cluster models, the training rows of their Gaussian processes, a tuner's
//! known-safe set and the fleet's knowledge base all hold that row, so it is allocated
//! once and shared by reference count ([`Row`]). A row is immutable, so no holder can
//! change what another reads.
//!
//! Snapshots never see the sharing: every holder writes its values out as the plain
//! `Vec<f64>` members of the public state types. A restore maps equal payloads back onto
//! one row with a [`RowInterner`], which compares values by `f64::to_bits`, so `-0.0`
//! and `0.0` stay distinct and every snapshot byte survives the round trip.

use crate::contextual::ContextObservation;
use serde::{Deserialize, Deserializer, Error, Serialize, Serializer};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

/// A joint input row `[θ ‖ c]`, or a configuration alone, shared by every holder. An
/// `Arc`, not an `Rc`: sessions run on worker threads and share rows with the fleet's
/// knowledge base.
pub type Row = Arc<[f64]>;

/// One observation as the tuner keeps it: a shared joint row `[θ ‖ c]` and the
/// performance measured on it. [`ContextObservation`] is the same observation as the
/// snapshot writes it.
#[derive(Debug, Clone)]
pub struct SharedObservation {
    row: Row,
    config_dim: usize,
    /// Observed performance (higher is better).
    pub performance: f64,
}

impl SharedObservation {
    /// An observation on a newly allocated row holding `config ‖ context`.
    pub fn new(config: &[f64], context: &[f64], performance: f64) -> Self {
        SharedObservation {
            row: config.iter().chain(context).copied().collect(),
            config_dim: config.len(),
            performance,
        }
    }

    /// The normalized configuration `θ`.
    pub fn config(&self) -> &[f64] {
        &self.row[..self.config_dim]
    }

    /// The context `c`.
    pub fn context(&self) -> &[f64] {
        &self.row[self.config_dim..]
    }

    /// The shared joint row `[θ ‖ c]`.
    pub fn row(&self) -> &Row {
        &self.row
    }

    /// The configuration as a [`SharedConfig`] on this observation's row.
    pub fn shared_config(&self) -> SharedConfig {
        SharedConfig {
            row: Arc::clone(&self.row),
            len: self.config_dim,
        }
    }

    /// Whether `config` and `context` are this observation's, bit for bit.
    pub fn has_bits(&self, config: &[f64], context: &[f64]) -> bool {
        same_bits(self.config(), config) && same_bits(self.context(), context)
    }

    /// A copy in the snapshot's type.
    pub fn to_observation(&self) -> ContextObservation {
        ContextObservation {
            context: self.context().to_vec(),
            config: self.config().to_vec(),
            performance: self.performance,
        }
    }
}

impl From<&ContextObservation> for SharedObservation {
    fn from(obs: &ContextObservation) -> Self {
        SharedObservation::new(&obs.config, &obs.context, obs.performance)
    }
}

impl From<ContextObservation> for SharedObservation {
    fn from(obs: ContextObservation) -> Self {
        SharedObservation::from(&obs)
    }
}

/// Written exactly as the [`ContextObservation`] it copies.
impl Serialize for SharedObservation {
    fn serialize(&self, out: &mut Serializer) {
        out.begin_object();
        out.key("context");
        self.context().serialize(out);
        out.key("config");
        self.config().serialize(out);
        out.key("performance");
        self.performance.serialize(out);
        out.end_object();
    }
}

/// Reads the bytes of a [`ContextObservation`], matching members as its derived reader
/// does, straight into one row: the values go through this thread's read buffers, so the
/// row is the only allocation.
impl Deserialize for SharedObservation {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        with_read_buffers(|context, config| {
            let (mut has_context, mut has_config, mut performance) = (false, false, None);
            de.begin_object()?;
            while let Some(key) = de.next_key()? {
                match &*key {
                    "context" if !has_context => {
                        read_values(de, context)?;
                        has_context = true;
                    }
                    "config" if !has_config => {
                        read_values(de, config)?;
                        has_config = true;
                    }
                    "performance" if performance.is_none() => {
                        performance = Some(f64::deserialize(de)?)
                    }
                    _ => de.skip_value()?,
                }
            }
            let missing = |field: &str| {
                de.error(format_args!(
                    "missing field `{field}` in ContextObservation"
                ))
            };
            if !has_context {
                return Err(missing("context"));
            }
            if !has_config {
                return Err(missing("config"));
            }
            let performance = performance.ok_or_else(|| missing("performance"))?;
            Ok(SharedObservation::new(config, context, performance))
        })
    }
}

/// A normalized configuration: the first `len` values of a shared row, which is either an
/// observation's joint row or a row of its own. It reads as the slice `[f64]`.
#[derive(Debug, Clone)]
pub struct SharedConfig {
    row: Row,
    len: usize,
}

impl SharedConfig {
    /// A configuration on a newly allocated row of its own.
    pub fn new(values: &[f64]) -> Self {
        SharedConfig {
            row: Row::from(values),
            len: values.len(),
        }
    }
}

impl std::ops::Deref for SharedConfig {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.row[..self.len]
    }
}

/// Values compared with `==`, as the `Vec<f64>` this type replaces.
impl PartialEq for SharedConfig {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// Written exactly as the `Vec<f64>` it copies.
impl Serialize for SharedConfig {
    fn serialize(&self, out: &mut Serializer) {
        (**self).serialize(out);
    }
}

/// Reads the bytes of a `Vec<f64>` through this thread's read buffers, so the row is the
/// only allocation.
impl Deserialize for SharedConfig {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, Error> {
        with_read_buffers(|values, _| {
            read_values(de, values)?;
            Ok(SharedConfig::new(values))
        })
    }
}

thread_local! {
    /// This thread's buffers for the values of one row while it is read from text.
    static READ_BUFFERS: Cell<(Vec<f64>, Vec<f64>)> = const { Cell::new((Vec::new(), Vec::new())) };
}

/// Runs `f` with this thread's two read buffers taken out of their slot, then puts them
/// back.
fn with_read_buffers<T>(f: impl FnOnce(&mut Vec<f64>, &mut Vec<f64>) -> T) -> T {
    let (mut a, mut b) = READ_BUFFERS.take();
    let out = f(&mut a, &mut b);
    READ_BUFFERS.set((a, b));
    out
}

/// Reads a JSON array of numbers into `out`, replacing what it held.
fn read_values(de: &mut Deserializer<'_>, out: &mut Vec<f64>) -> Result<(), Error> {
    out.clear();
    de.begin_array()?;
    while de.next_element()? {
        out.push(f64::deserialize(de)?);
    }
    Ok(())
}

/// Finds the row that already holds a payload, so that equal payloads share one row.
///
/// Rows are found by a hash of their bits and confirmed bit for bit. A payload with no
/// registered row gets one (its own, or a new one), which is registered for later
/// lookups. Which of two bit-identical rows a lookup returns cannot change a computed
/// value, only which allocation is shared.
#[derive(Debug, Default)]
pub struct RowInterner {
    /// Joint rows by the hash of all their values.
    rows: HashMap<u64, Row>,
    /// Rows by the hash of their configuration prefix (the whole row for a
    /// configuration of its own).
    configs: HashMap<u64, Row>,
}

impl RowInterner {
    /// `performance` observed on the registered row holding exactly `config ‖ context`;
    /// a new row is allocated only when there is none.
    pub fn observation(
        &mut self,
        config: &[f64],
        context: &[f64],
        performance: f64,
    ) -> SharedObservation {
        SharedObservation {
            row: self.joint_row(config, context, None),
            config_dim: config.len(),
            performance,
        }
    }

    /// `obs` on the registered row holding its values, or on its own row, which is then
    /// registered.
    pub fn share(&mut self, obs: &SharedObservation) -> SharedObservation {
        SharedObservation {
            row: self.joint_row(obs.config(), obs.context(), Some(&obs.row)),
            config_dim: obs.config_dim,
            performance: obs.performance,
        }
    }

    /// The configuration `values` on a registered row that begins with exactly these
    /// values; a new row is allocated only when there is none.
    pub fn config(&mut self, values: &[f64]) -> SharedConfig {
        SharedConfig {
            row: self.prefix_row(values, None),
            len: values.len(),
        }
    }

    /// `config` on a registered row that begins with its values, or on its own row,
    /// which is then registered.
    pub fn share_config(&mut self, config: &SharedConfig) -> SharedConfig {
        SharedConfig {
            row: self.prefix_row(config, Some(&config.row)),
            len: config.len,
        }
    }

    /// The registered row holding exactly `config ‖ context`, else `own` (or a new row),
    /// registered as a joint row and by its configuration prefix.
    fn joint_row(&mut self, config: &[f64], context: &[f64], own: Option<&Row>) -> Row {
        let prefix = BitsHash::of(config);
        let key = prefix.then(context).key();
        if let Some(row) = self.rows.get(&key) {
            let (row_config, row_context) = row.split_at(config.len().min(row.len()));
            if same_bits(row_config, config) && same_bits(row_context, context) {
                return Arc::clone(row);
            }
        }
        let row = own.map_or_else(
            || config.iter().chain(context).copied().collect(),
            Arc::clone,
        );
        self.rows.entry(key).or_insert_with(|| Arc::clone(&row));
        self.configs
            .entry(prefix.key())
            .or_insert_with(|| Arc::clone(&row));
        row
    }

    /// The registered row that begins with exactly `values`, else `own` (or a new row),
    /// registered by that prefix.
    fn prefix_row(&mut self, values: &[f64], own: Option<&Row>) -> Row {
        let key = BitsHash::of(values).key();
        if let Some(row) = self.configs.get(&key) {
            if row.len() >= values.len() && same_bits(&row[..values.len()], values) {
                return Arc::clone(row);
            }
        }
        let row = own.map_or_else(|| Row::from(values), Arc::clone);
        self.configs.entry(key).or_insert_with(|| Arc::clone(&row));
        row
    }
}

/// Whether two slices hold the same bits.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A running hash of the bits of a row's values, in order, at one multiply per value.
/// The hash of a configuration prefix is a step on the way to its joint row's, so
/// registering a row hashes its values once. The interner keeps one row per hash, so two
/// payloads that collide only forgo sharing; no input can make a lookup slower.
#[derive(Clone, Copy)]
struct BitsHash {
    state: u64,
    len: u64,
}

impl BitsHash {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    fn of(values: &[f64]) -> Self {
        BitsHash { state: 0, len: 0 }.then(values)
    }

    fn then(self, values: &[f64]) -> Self {
        BitsHash {
            state: values
                .iter()
                .fold(self.state, |h, v| Self::mix(h, v.to_bits())),
            len: self.len + values.len() as u64,
        }
    }

    /// The hash of the values added so far, with their count.
    fn key(self) -> u64 {
        Self::mix(self.state, self.len)
    }

    fn mix(h: u64, word: u64) -> u64 {
        (h.rotate_left(5) ^ word).wrapping_mul(Self::K)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_payloads_share_one_row_and_signed_zeros_do_not() {
        let mut rows = RowInterner::default();
        let a = rows.observation(&[0.0, 0.5], &[1.0], 2.0);
        let again = rows.observation(&[0.0, 0.5], &[1.0], 3.0);
        assert!(Arc::ptr_eq(a.row(), again.row()));
        assert_eq!(again.performance, 3.0);
        let negative = rows.observation(&[-0.0, 0.5], &[1.0], 2.0);
        assert!(!Arc::ptr_eq(a.row(), negative.row()));
        assert_eq!(negative.config()[0].to_bits(), (-0.0f64).to_bits());

        let config = rows.config(&[0.0, 0.5]);
        assert!(Arc::ptr_eq(&config.row, a.row()));
        assert_eq!(&*config, &[0.0, 0.5]);
        let own = rows.config(&[0.25]);
        assert!(Arc::ptr_eq(&rows.config(&[0.25]).row, &own.row));
        assert!(!Arc::ptr_eq(&rows.config(&[-0.0, 0.5]).row, a.row()));

        // Entries that arrive with rows of their own map onto the registered rows, or
        // register their own.
        let parsed = SharedObservation::new(&[0.0, 0.5], &[1.0], 7.0);
        assert!(Arc::ptr_eq(rows.share(&parsed).row(), a.row()));
        let unseen = SharedObservation::new(&[0.75], &[1.0], 7.0);
        assert!(Arc::ptr_eq(rows.share(&unseen).row(), unseen.row()));
        let parsed_config = SharedConfig::new(&[0.0, 0.5]);
        assert!(Arc::ptr_eq(&rows.share_config(&parsed_config).row, a.row()));
    }

    fn text<T: Serialize + ?Sized>(value: &T) -> String {
        let mut out = Serializer::compact();
        value.serialize(&mut out);
        out.into_string()
    }

    #[test]
    fn shared_types_write_the_bytes_of_the_types_they_copy() {
        let plain = ContextObservation {
            context: vec![0.25, -0.0],
            config: vec![1.0, 1e-300],
            performance: -4.5,
        };
        let shared = SharedObservation::from(&plain);
        assert_eq!(text(&shared), text(&plain));
        let back = SharedObservation::deserialize(&mut Deserializer::new(&text(&plain))).unwrap();
        assert_eq!(text(&back), text(&plain));
        assert_eq!(text(&shared.shared_config()), text(&plain.config));
        let config = SharedConfig::deserialize(&mut Deserializer::new(&text(&plain.config)));
        assert_eq!(text(&config.unwrap()), text(&plain.config));

        // The readers match members as the derived reader of `ContextObservation` does:
        // in any order, unknown ones skipped, the first of duplicates kept, and a
        // missing one an error naming it.
        let reordered = r#"{"performance":-4.5,"x":[1],"config":[1,1e-300],"context":[0.25,-0.0],"config":[7]}"#;
        let back = SharedObservation::deserialize(&mut Deserializer::new(reordered)).unwrap();
        assert_eq!(text(&back), text(&plain));
        let missing =
            SharedObservation::deserialize(&mut Deserializer::new(r#"{"context":[],"config":[]}"#));
        let derived = ContextObservation::deserialize(&mut Deserializer::new(
            r#"{"context":[],"config":[]}"#,
        ));
        assert_eq!(missing.unwrap_err(), derived.unwrap_err());
    }
}
