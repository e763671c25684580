//! Binary persistence for a full [`ClusterStore`] (schema + clusters).
//!
//! Metadata persistence ([`crate::codec`]) covers the online protocol; this
//! codec covers the *offline* artifact a provider keeps between sessions:
//! the clustered table itself. Layout (little-endian):
//!
//! ```text
//! magic  u32  = 0x4651_5354  ("FQST")
//! version u16
//! capacity u64
//! schema: n_dims u16, per dim { name_len u16, utf8 name, min i64, max i64 }
//! n_clusters u32
//! per cluster: id u32, len u32,
//!              per dim: len × i64 values,
//!              len × uvarint measures
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};
use fedaqp_model::{Dimension, Domain, Row, Schema};

use crate::cluster::Cluster;
use crate::store::ClusterStore;
use crate::{Result, StorageError};

const MAGIC: u32 = 0x4651_5354;
const VERSION: u16 = 1;

/// Serializes a store to its binary form.
pub fn encode_store(store: &ClusterStore) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + store.total_rows() * 16);
    buf.put_u32_le(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u64_le(store.capacity() as u64);
    let schema = store.schema();
    buf.put_u16_le(schema.arity() as u16);
    for d in schema.dimensions() {
        let name = d.name().as_bytes();
        buf.put_u16_le(name.len() as u16);
        buf.put_slice(name);
        buf.put_i64_le(d.domain().min());
        buf.put_i64_le(d.domain().max());
    }
    buf.put_u32_le(store.n_clusters() as u32);
    for c in store.clusters() {
        buf.put_u32_le(c.id());
        buf.put_u32_le(c.len() as u32);
        for d in 0..c.arity() {
            for &v in c.column(d) {
                buf.put_i64_le(v);
            }
        }
        for &m in c.measures() {
            put_uvarint(&mut buf, m);
        }
    }
    buf.freeze()
}

/// Deserializes a store from its binary form.
pub fn decode_store(mut data: &[u8]) -> Result<ClusterStore> {
    if data.remaining() < 4 + 2 + 8 + 2 {
        return Err(StorageError::Corrupt("store header truncated"));
    }
    if data.get_u32_le() != MAGIC {
        return Err(StorageError::Corrupt("bad store magic"));
    }
    let version = data.get_u16_le();
    if version != VERSION {
        return Err(StorageError::UnsupportedVersion(version));
    }
    let capacity = data.get_u64_le() as usize;
    if capacity == 0 {
        return Err(StorageError::ZeroCapacity);
    }
    let n_dims = data.get_u16_le() as usize;
    let mut dims = Vec::with_capacity(n_dims);
    for _ in 0..n_dims {
        if data.remaining() < 2 {
            return Err(StorageError::Corrupt("dimension header truncated"));
        }
        let name_len = data.get_u16_le() as usize;
        if data.remaining() < name_len + 16 {
            return Err(StorageError::Corrupt("dimension body truncated"));
        }
        let name = std::str::from_utf8(&data[..name_len])
            .map_err(|_| StorageError::Corrupt("dimension name not utf8"))?
            .to_owned();
        data.advance(name_len);
        let min = data.get_i64_le();
        let max = data.get_i64_le();
        let domain = Domain::new(min, max).map_err(StorageError::Model)?;
        dims.push(Dimension::new(name, domain));
    }
    let schema = Schema::new(dims).map_err(StorageError::Model)?;
    if data.remaining() < 4 {
        return Err(StorageError::Corrupt("cluster count truncated"));
    }
    let n_clusters = data.get_u32_le() as usize;
    let mut rows_by_cluster: Vec<(u32, Vec<Row>)> = Vec::with_capacity(n_clusters.min(1 << 20));
    for _ in 0..n_clusters {
        if data.remaining() < 8 {
            return Err(StorageError::Corrupt("cluster header truncated"));
        }
        let id = data.get_u32_le();
        let len = data.get_u32_le() as usize;
        if len > capacity {
            return Err(StorageError::CapacityExceeded {
                rows: len,
                capacity,
            });
        }
        let need = len * schema.arity() * 8;
        if data.remaining() < need {
            return Err(StorageError::Corrupt("cluster columns truncated"));
        }
        let mut cols: Vec<Vec<i64>> = Vec::with_capacity(schema.arity());
        for _ in 0..schema.arity() {
            let mut col = Vec::with_capacity(len);
            for _ in 0..len {
                col.push(data.get_i64_le());
            }
            cols.push(col);
        }
        let mut measures = Vec::with_capacity(len);
        for _ in 0..len {
            measures.push(get_uvarint(&mut data)?);
        }
        // A store file is outside input: every cell must sit inside the
        // domain its schema promises, or the file is refused.
        let rows = (0..len)
            .map(|i| {
                let row = Row::cell(cols.iter().map(|c| c[i]).collect(), measures[i]);
                schema.check_row(&row).map_err(StorageError::Model)?;
                Ok(row)
            })
            .collect::<Result<Vec<Row>>>()?;
        rows_by_cluster.push((id, rows));
    }
    if data.has_remaining() {
        return Err(StorageError::Corrupt("trailing bytes after store"));
    }
    // Rebuild preserving the original cluster boundaries and ids: clusters
    // were written in id order by `encode_store`; validate and flatten.
    rows_by_cluster.sort_by_key(|(id, _)| *id);
    for (expect, (id, _)) in rows_by_cluster.iter().enumerate() {
        if *id != expect as u32 {
            return Err(StorageError::Corrupt("non-contiguous cluster ids"));
        }
    }
    let clusters: Vec<Cluster> = rows_by_cluster
        .into_iter()
        .map(|(id, rows)| Cluster::from_rows(id, schema.arity(), &rows, capacity))
        .collect::<Result<_>>()?;
    ClusterStore::from_parts(schema, capacity, clusters)
}

fn put_uvarint(buf: &mut BytesMut, mut v: u64) {
    while v >= 0x80 {
        buf.put_u8((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    buf.put_u8(v as u8);
}

fn get_uvarint(data: &mut &[u8]) -> Result<u64> {
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        if !data.has_remaining() {
            return Err(StorageError::Corrupt("measure varint truncated"));
        }
        let b = data.get_u8();
        if shift >= 64 {
            return Err(StorageError::Corrupt("measure varint overflow"));
        }
        out |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PartitionStrategy;
    use fedaqp_model::{Aggregate, ModelError, Range, RangeQuery};

    fn demo_store() -> ClusterStore {
        let schema = Schema::new(vec![
            Dimension::new("alpha", Domain::new(-500, 500).unwrap()),
            Dimension::new("beta", Domain::new(0, 63).unwrap()),
        ])
        .unwrap();
        let rows: Vec<Row> = (0..157)
            .map(|i| {
                Row::cell(
                    vec![(i as i64 * 13 % 1001) - 500, (i % 64) as i64],
                    1 + (i % 300) as u64,
                )
            })
            .collect();
        ClusterStore::build(schema, rows, 40, PartitionStrategy::SortedBy(0)).unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let store = demo_store();
        let blob = encode_store(&store);
        let back = decode_store(&blob).unwrap();
        assert_eq!(back.schema(), store.schema());
        assert_eq!(back.capacity(), store.capacity());
        assert_eq!(back.n_clusters(), store.n_clusters());
        assert_eq!(back.total_rows(), store.total_rows());
        assert_eq!(back.total_measure(), store.total_measure());
        // Cluster contents identical, column by column.
        for (a, b) in store.clusters().iter().zip(back.clusters()) {
            assert_eq!(a, b);
        }
        // Query results identical.
        let q = RangeQuery::new(
            Aggregate::Sum,
            vec![
                Range::new(0, -100, 300).unwrap(),
                Range::new(1, 5, 50).unwrap(),
            ],
        )
        .unwrap();
        assert_eq!(store.evaluate_full(&q), back.evaluate_full(&q));
    }

    #[test]
    fn rejects_corruption() {
        let store = demo_store();
        let blob = encode_store(&store).to_vec();
        // Bad magic.
        let mut bad = blob.clone();
        bad[0] ^= 0x55;
        assert!(decode_store(&bad).is_err());
        // Bad version.
        let mut bad = blob.clone();
        bad[4] = 0xFF;
        assert!(matches!(
            decode_store(&bad),
            Err(StorageError::UnsupportedVersion(_))
        ));
        // Trailing garbage.
        let mut bad = blob.clone();
        bad.push(7);
        assert!(decode_store(&bad).is_err());
    }

    /// A cell patched outside its dimension's domain is refused, not
    /// loaded behind a schema that promises it cannot exist.
    #[test]
    fn out_of_domain_cells_are_rejected() {
        let store = demo_store();
        let mut blob = encode_store(&store).to_vec();
        // Cluster 0's first `alpha` cell sits after the header, both
        // dimensions (name length + name + domain), the cluster count and
        // the cluster's id and length.
        let at = (4 + 2 + 8 + 2) + (2 + 5 + 16) + (2 + 4 + 16) + 4 + 4 + 4;
        blob[at..at + 8].copy_from_slice(&501i64.to_le_bytes());
        assert!(matches!(
            decode_store(&blob),
            Err(StorageError::Model(ModelError::ValueOutOfDomain {
                dim: 0,
                value: 501,
                ..
            }))
        ));
    }

    #[test]
    fn every_truncation_fails_cleanly() {
        let store = demo_store();
        let blob = encode_store(&store);
        for cut in (0..blob.len()).step_by(11) {
            assert!(decode_store(&blob[..cut]).is_err(), "prefix {cut} decoded");
        }
    }

    #[test]
    fn empty_store_round_trips() {
        let schema = Schema::new(vec![Dimension::new("x", Domain::new(0, 9).unwrap())]).unwrap();
        let store = ClusterStore::build(schema, vec![], 8, PartitionStrategy::Sequential).unwrap();
        let back = decode_store(&encode_store(&store)).unwrap();
        assert_eq!(back.n_clusters(), 0);
        assert_eq!(back.capacity(), 8);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::store::PartitionStrategy;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Round-trips for arbitrary stores and capacities.
        #[test]
        fn round_trip_arbitrary(
            raw in proptest::collection::vec((-100i64..100, 0i64..20, 1u64..1000), 0..150),
            capacity in 1usize..50,
        ) {
            let schema = Schema::new(vec![
                Dimension::new("x", Domain::new(-100, 100).unwrap()),
                Dimension::new("y", Domain::new(0, 20).unwrap()),
            ]).unwrap();
            let rows: Vec<Row> = raw
                .into_iter()
                .map(|(x, y, m)| Row::cell(vec![x, y], m))
                .collect();
            let store = ClusterStore::build(schema, rows, capacity, PartitionStrategy::Sequential).unwrap();
            let back = decode_store(&encode_store(&store)).unwrap();
            prop_assert_eq!(store.clusters(), back.clusters());
            prop_assert_eq!(store.capacity(), back.capacity());
        }
    }
}
