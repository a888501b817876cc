//! Column-major dataset storage plus the encoded views consumed by the
//! clustering algorithms.

use crate::builder::{resolve, ResolvedCell};
use crate::encode::{EncoderSpec, FrozenEncoder, Normalization, NumCodec};
use crate::error::DataError;
use crate::matrix::NumericMatrix;
use crate::schema::{AttrId, AttrKind, Role, Schema};
use crate::sensitive::{SensitiveCat, SensitiveNum, SensitiveSpace};
use crate::value::Value;

/// One stored column.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Column {
    Num(Vec<f64>),
    Cat(Vec<u32>),
}

impl Column {
    fn len(&self) -> usize {
        match self {
            Column::Num(v) => v.len(),
            Column::Cat(v) => v.len(),
        }
    }
}

/// A validated dataset: a [`Schema`] plus column-major storage.
///
/// Construct with [`crate::DatasetBuilder`] or [`crate::read_csv`]. The
/// schema is immutable once built; rows can still be appended with
/// [`Dataset::append_row`] / [`Dataset::append_rows`] under the same
/// validation as build time — the ingestion path of the streaming
/// subsystem. Derived views (task matrices, sensitive spaces, frozen
/// encoders) are snapshots: they do not see rows appended after they were
/// built.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    schema: Schema,
    columns: Vec<Column>,
    n_rows: usize,
}

impl Dataset {
    pub(crate) fn from_parts(schema: Schema, columns: Vec<Column>, n_rows: usize) -> Self {
        debug_assert_eq!(schema.len(), columns.len());
        debug_assert!(columns.iter().all(|c| c.len() == n_rows));
        Self {
            schema,
            columns,
            n_rows,
        }
    }

    /// The schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows `|X|`.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Numeric column by attribute id; errors if the attribute is
    /// categorical or unknown.
    pub fn numeric_column(&self, id: AttrId) -> Result<&[f64], DataError> {
        let attr = self.schema.attr(id)?;
        match &self.columns[id.index()] {
            Column::Num(v) => Ok(v),
            Column::Cat(_) => Err(DataError::TypeMismatch {
                attribute: attr.name.clone(),
                expected: "a numeric column",
            }),
        }
    }

    /// Categorical column (dense value indices) by attribute id; errors if
    /// the attribute is numeric or unknown.
    pub fn categorical_column(&self, id: AttrId) -> Result<&[u32], DataError> {
        let attr = self.schema.attr(id)?;
        match &self.columns[id.index()] {
            Column::Cat(v) => Ok(v),
            Column::Num(_) => Err(DataError::TypeMismatch {
                attribute: attr.name.clone(),
                expected: "a categorical column",
            }),
        }
    }

    /// The cell at `(row, id)` as a resolved [`Value`]
    /// ([`Value::Label`] for categorical cells).
    pub fn value(&self, row: usize, id: AttrId) -> Result<Value, DataError> {
        let attr = self.schema.attr(id)?;
        match &self.columns[id.index()] {
            Column::Num(v) => Ok(Value::Num(v[row])),
            Column::Cat(v) => {
                let label = attr
                    .label(v[row])
                    .expect("stored index always within domain");
                Ok(Value::Label(label.to_string()))
            }
        }
    }

    /// Encode the non-sensitive attributes into a dense row-major matrix:
    /// numeric columns (normalized per `norm`) followed by 0/1 one-hot
    /// blocks for categorical non-sensitive attributes.
    ///
    /// This is the space `N` over which `dist_N` (Eq. 1) and the clustering
    /// quality metrics operate.
    pub fn task_matrix(&self, norm: Normalization) -> Result<NumericMatrix, DataError> {
        self.matrix_for_role(Role::NonSensitive, norm)
    }

    /// Like [`Self::task_matrix`] but over an explicit attribute subset
    /// (order preserved). All listed attributes must exist.
    pub fn matrix_for(
        &self,
        attrs: &[AttrId],
        norm: Normalization,
    ) -> Result<NumericMatrix, DataError> {
        if attrs.is_empty() {
            return Err(DataError::EmptyView("matrix_for"));
        }
        let mut encoded_cols: Vec<Vec<f64>> = Vec::new();
        let mut names: Vec<String> = Vec::new();
        for &id in attrs {
            let attr = self.schema.attr(id)?;
            match (&attr.kind, &self.columns[id.index()]) {
                (AttrKind::Numeric, Column::Num(v)) => {
                    let mut col = v.clone();
                    norm.apply(&mut col);
                    encoded_cols.push(col);
                    names.push(attr.name.clone());
                }
                (AttrKind::Categorical { values }, Column::Cat(idx)) => {
                    // One-hot block, one 0/1 column per domain value.
                    for (vi, vname) in values.iter().enumerate() {
                        let col = idx
                            .iter()
                            .map(|&x| if x as usize == vi { 1.0 } else { 0.0 })
                            .collect();
                        encoded_cols.push(col);
                        names.push(format!("{}={}", attr.name, vname));
                    }
                }
                _ => unreachable!("column kind always matches schema kind"),
            }
        }
        let cols = encoded_cols.len();
        let mut data = Vec::with_capacity(self.n_rows * cols);
        for r in 0..self.n_rows {
            for c in &encoded_cols {
                data.push(c[r]);
            }
        }
        Ok(NumericMatrix::from_parts(data, self.n_rows, cols, names))
    }

    fn matrix_for_role(&self, role: Role, norm: Normalization) -> Result<NumericMatrix, DataError> {
        let ids = self.schema.ids_with_role(role);
        if ids.is_empty() {
            return Err(DataError::EmptyView("task_matrix"));
        }
        self.matrix_for(&ids, norm)
    }

    /// Materialize the full sensitive space `S` (all attributes with
    /// [`Role::Sensitive`]).
    pub fn sensitive_space(&self) -> Result<SensitiveSpace, DataError> {
        let ids = self.schema.ids_with_role(Role::Sensitive);
        self.sensitive_space_for(&ids)
    }

    /// Materialize a sensitive space over an explicit subset of attributes
    /// (the paper's per-attribute `FairKM(S)` / `ZGYA(S)` invocations).
    pub fn sensitive_space_for(&self, attrs: &[AttrId]) -> Result<SensitiveSpace, DataError> {
        let mut cat = Vec::new();
        let mut num = Vec::new();
        for &id in attrs {
            let attr = self.schema.attr(id)?;
            match (&attr.kind, &self.columns[id.index()]) {
                (AttrKind::Categorical { values }, Column::Cat(idx)) => {
                    cat.push(SensitiveCat::new(
                        id,
                        attr.name.clone(),
                        values.clone(),
                        idx.clone(),
                    ));
                }
                (AttrKind::Numeric, Column::Num(v)) => {
                    num.push(SensitiveNum::new(id, attr.name.clone(), v.clone()));
                }
                _ => unreachable!("column kind always matches schema kind"),
            }
        }
        Ok(SensitiveSpace::new(self.n_rows, cat, num))
    }

    /// Materialize row `r` as owned cells in schema order (labels resolved)
    /// — the inverse of [`Self::append_row`], used to replay stored rows as
    /// streaming arrivals.
    pub fn row_values(&self, r: usize) -> Result<Vec<Value>, DataError> {
        self.schema
            .iter()
            .map(|(id, _)| self.value(r, id))
            .collect()
    }

    /// Append one row, returning its row index. Cells must match the frozen
    /// schema positionally and are validated exactly like
    /// [`crate::DatasetBuilder::push_row`]; a failed append leaves the
    /// dataset unchanged.
    pub fn append_row(&mut self, row: Vec<Value>) -> Result<usize, DataError> {
        self.append_rows(vec![row])
            .map(|appended| self.n_rows - appended)
    }

    /// Append many rows atomically: every cell of every row is validated
    /// before any column is mutated, so an error leaves the dataset
    /// unchanged. Returns the number of rows appended.
    pub fn append_rows(&mut self, rows: Vec<Vec<Value>>) -> Result<usize, DataError> {
        let mut resolved: Vec<Vec<ResolvedCell>> = Vec::with_capacity(rows.len());
        for (offset, row) in rows.into_iter().enumerate() {
            if row.len() != self.schema.len() {
                return Err(DataError::RowArity {
                    expected: self.schema.len(),
                    got: row.len(),
                });
            }
            let mut cells = Vec::with_capacity(row.len());
            for (value, (_, attr)) in row.iter().zip(self.schema.iter()) {
                cells.push(resolve(value, attr, self.n_rows + offset)?);
            }
            resolved.push(cells);
        }
        let appended = resolved.len();
        for cells in resolved {
            for (cell, col) in cells.into_iter().zip(self.columns.iter_mut()) {
                match (cell, col) {
                    (ResolvedCell::Num(x), Column::Num(v)) => v.push(x),
                    (ResolvedCell::Cat(i), Column::Cat(v)) => v.push(i),
                    _ => unreachable!("resolve() returns the column's kind"),
                }
            }
        }
        self.n_rows += appended;
        Ok(appended)
    }

    /// Capture a [`FrozenEncoder`] over the non-sensitive attributes: the
    /// exact per-column transforms `task_matrix(norm)` applies to the rows
    /// present *now*, reusable verbatim on rows appended later. See
    /// [`FrozenEncoder`] for the streaming-ingestion rationale.
    pub fn frozen_encoder(&self, norm: Normalization) -> Result<FrozenEncoder, DataError> {
        let ids = self.schema.ids_with_role(Role::NonSensitive);
        if ids.is_empty() {
            return Err(DataError::EmptyView("frozen_encoder"));
        }
        let mut specs = Vec::with_capacity(ids.len());
        for id in ids {
            let attr = self.schema.attr(id)?.clone();
            let codec = match (&attr.kind, &self.columns[id.index()]) {
                (AttrKind::Numeric, Column::Num(col)) => Some(NumCodec::fit(norm, col)),
                (AttrKind::Categorical { .. }, Column::Cat(_)) => None,
                _ => unreachable!("column kind always matches schema kind"),
            };
            specs.push(EncoderSpec {
                position: id.index(),
                attr,
                codec,
            });
        }
        Ok(FrozenEncoder::from_specs(specs, self.schema.len()))
    }

    /// New dataset containing only the given rows, in the given order.
    /// Used for undersampling and train/holdout style splits.
    pub fn select_rows(&self, rows: &[usize]) -> Result<Dataset, DataError> {
        for &r in rows {
            if r >= self.n_rows {
                return Err(DataError::Csv {
                    line: r,
                    message: "row index out of bounds in select_rows".into(),
                });
            }
        }
        let columns = self
            .columns
            .iter()
            .map(|c| match c {
                Column::Num(v) => Column::Num(rows.iter().map(|&r| v[r]).collect()),
                Column::Cat(v) => Column::Cat(rows.iter().map(|&r| v[r]).collect()),
            })
            .collect();
        Ok(Dataset::from_parts(
            self.schema.clone(),
            columns,
            rows.len(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DatasetBuilder;
    use crate::row;

    fn sample() -> Dataset {
        let mut b = DatasetBuilder::new();
        b.numeric("x", Role::NonSensitive).unwrap();
        b.categorical("color", Role::NonSensitive, &["red", "blue"])
            .unwrap();
        b.categorical("g", Role::Sensitive, &["a", "b"]).unwrap();
        b.numeric("age", Role::Sensitive).unwrap();
        b.categorical("label", Role::Auxiliary, &["lo", "hi"])
            .unwrap();
        b.push_row(row![1.0, "red", "a", 30.0, "lo"]).unwrap();
        b.push_row(row![3.0, "blue", "b", 50.0, "hi"]).unwrap();
        b.push_row(row![5.0, "red", "a", 40.0, "hi"]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn task_matrix_one_hot_and_order() {
        let d = sample();
        let m = d.task_matrix(Normalization::None).unwrap();
        // numeric x, then one-hot color=red,color=blue
        assert_eq!(m.cols(), 3);
        assert_eq!(m.row(0), &[1.0, 1.0, 0.0]);
        assert_eq!(m.row(1), &[3.0, 0.0, 1.0]);
        assert_eq!(
            m.col_names(),
            &[
                "x".to_string(),
                "color=red".to_string(),
                "color=blue".to_string()
            ]
        );
    }

    #[test]
    fn sensitive_space_contains_cat_and_num() {
        let d = sample();
        let s = d.sensitive_space().unwrap();
        assert_eq!(s.categorical().len(), 1);
        assert_eq!(s.numeric().len(), 1);
        assert_eq!(s.categorical()[0].values(), &[0, 1, 0]);
        assert!((s.numeric()[0].dataset_mean() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn aux_attributes_stay_out_of_views() {
        let d = sample();
        let m = d.task_matrix(Normalization::None).unwrap();
        assert!(m.col_names().iter().all(|n| !n.starts_with("label")));
        let s = d.sensitive_space().unwrap();
        assert!(s.categorical().iter().all(|c| c.name() != "label"));
    }

    #[test]
    fn select_rows_reorders_and_subsets() {
        let d = sample();
        let sub = d.select_rows(&[2, 0]).unwrap();
        assert_eq!(sub.n_rows(), 2);
        assert_eq!(sub.numeric_column(AttrId(0)).unwrap(), &[5.0, 1.0]);
        assert_eq!(sub.categorical_column(AttrId(2)).unwrap(), &[0, 0]);
    }

    #[test]
    fn select_rows_rejects_out_of_bounds() {
        let d = sample();
        assert!(d.select_rows(&[0, 99]).is_err());
    }

    #[test]
    fn typed_column_access_checks_kind() {
        let d = sample();
        assert!(d.numeric_column(AttrId(1)).is_err());
        assert!(d.categorical_column(AttrId(0)).is_err());
        assert_eq!(d.numeric_column(AttrId(0)).unwrap(), &[1.0, 3.0, 5.0]);
    }

    #[test]
    fn value_resolves_labels() {
        let d = sample();
        assert_eq!(d.value(1, AttrId(2)).unwrap(), Value::Label("b".into()));
        assert_eq!(d.value(0, AttrId(0)).unwrap(), Value::Num(1.0));
    }

    #[test]
    fn append_row_validates_and_grows() {
        let mut d = sample();
        let idx = d.append_row(row![9.0, "blue", "b", 60.0, "lo"]).unwrap();
        assert_eq!(idx, 3);
        assert_eq!(d.n_rows(), 4);
        assert_eq!(d.numeric_column(AttrId(0)).unwrap(), &[1.0, 3.0, 5.0, 9.0]);
        assert_eq!(d.value(3, AttrId(2)).unwrap(), Value::Label("b".into()));
        // Bad cells are rejected under the build-time rules.
        assert!(matches!(
            d.append_row(row![9.0, "green", "b", 60.0, "lo"]),
            Err(DataError::UnknownCategory { .. })
        ));
        assert!(matches!(
            d.append_row(row![9.0, "blue"]),
            Err(DataError::RowArity { .. })
        ));
        assert_eq!(d.n_rows(), 4, "failed appends leave the dataset unchanged");
    }

    #[test]
    fn append_rows_is_atomic() {
        let mut d = sample();
        let err = d.append_rows(vec![
            row![9.0, "blue", "b", 60.0, "lo"],
            row![f64::NAN, "red", "a", 1.0, "hi"],
        ]);
        assert!(matches!(err, Err(DataError::NonFiniteValue { .. })));
        assert_eq!(d.n_rows(), 3, "no row of a failed batch is committed");
        let appended = d
            .append_rows(vec![
                row![9.0, "blue", "b", 60.0, "lo"],
                row![2.0, "red", "a", 35.0, "hi"],
            ])
            .unwrap();
        assert_eq!(appended, 2);
        assert_eq!(d.n_rows(), 5);
    }

    #[test]
    fn zscore_task_matrix_has_centered_columns() {
        let d = sample();
        let m = d.task_matrix(Normalization::ZScore).unwrap();
        let mean_x: f64 = (0..3).map(|r| m.row(r)[0]).sum::<f64>() / 3.0;
        assert!(mean_x.abs() < 1e-12);
    }
}
