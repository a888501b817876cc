//! Row-by-row dataset construction with validation at push time.

use crate::dataset::{Column, Dataset};
use crate::error::DataError;
use crate::schema::{AttrId, AttrKind, Attribute, Role, Schema};
use crate::value::Value;

/// Builds a [`Dataset`]: declare attributes first, then push rows.
///
/// Validation happens eagerly — a bad cell is rejected at
/// [`DatasetBuilder::push_row`] with the attribute name in the error, and
/// the schema freezes once the first row is in.
///
/// ```
/// use fairkm_data::{row, DatasetBuilder, Role};
///
/// let mut b = DatasetBuilder::new();
/// b.numeric("income", Role::NonSensitive).unwrap();
/// b.categorical("gender", Role::Sensitive, &["female", "male"]).unwrap();
/// b.binary("migrant", Role::Sensitive).unwrap();
///
/// b.push_row(row![52_000.0, "female", true]).unwrap();
/// b.push_row(row![48_500.0, "male", false]).unwrap();
/// // A cell outside the declared domain is rejected, builder unchanged:
/// assert!(b.push_row(row![61_000.0, "unknown", false]).is_err());
/// assert_eq!(b.n_rows(), 2);
///
/// let data = b.build().unwrap();
/// assert_eq!(data.n_rows(), 2);
/// ```
#[derive(Debug, Default)]
pub struct DatasetBuilder {
    schema: Schema,
    columns: Vec<Column>,
    n_rows: usize,
}

impl DatasetBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a numeric attribute.
    pub fn numeric(&mut self, name: &str, role: Role) -> Result<AttrId, DataError> {
        self.declare(Attribute {
            name: name.to_string(),
            role,
            kind: AttrKind::Numeric,
        })
    }

    /// Declare a categorical attribute with the given domain.
    pub fn categorical(
        &mut self,
        name: &str,
        role: Role,
        values: &[&str],
    ) -> Result<AttrId, DataError> {
        self.declare(Attribute {
            name: name.to_string(),
            role,
            kind: AttrKind::Categorical {
                values: values.iter().map(|s| s.to_string()).collect(),
            },
        })
    }

    /// Declare a binary attribute with domain `["false", "true"]`, so
    /// `bool` literals work in [`crate::row!`].
    pub fn binary(&mut self, name: &str, role: Role) -> Result<AttrId, DataError> {
        self.categorical(name, role, &["false", "true"])
    }

    /// Declare an attribute from a full [`Attribute`] value.
    pub fn declare(&mut self, attr: Attribute) -> Result<AttrId, DataError> {
        if self.n_rows > 0 {
            return Err(DataError::SchemaFrozen);
        }
        let col = match &attr.kind {
            AttrKind::Numeric => Column::Num(Vec::new()),
            AttrKind::Categorical { .. } => Column::Cat(Vec::new()),
        };
        let id = self.schema.push(attr)?;
        self.columns.push(col);
        Ok(id)
    }

    /// Number of rows pushed so far.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The schema as declared so far.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Push one row; cells must match the schema positionally.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<(), DataError> {
        self.push_cells(&row)
    }

    /// [`Self::push_row`] from borrowed cells, so a reader can refill one
    /// row buffer. Allocates nothing beyond column growth.
    pub(crate) fn push_cells(&mut self, row: &[Value]) -> Result<(), DataError> {
        if row.len() != self.schema.len() {
            return Err(DataError::RowArity {
                expected: self.schema.len(),
                got: row.len(),
            });
        }
        // Validate all cells before mutating any column, so a failed push
        // leaves the builder unchanged; the push then resolves each cell
        // again instead of holding a resolved copy of the row.
        for (value, (_, attr)) in row.iter().zip(self.schema.iter()) {
            resolve(value, attr, self.n_rows)?;
        }
        let n_rows = self.n_rows;
        let columns = self.schema.iter().zip(self.columns.iter_mut());
        for (value, ((_, attr), col)) in row.iter().zip(columns) {
            match (resolve(value, attr, n_rows), col) {
                (Ok(ResolvedCell::Num(x)), Column::Num(v)) => v.push(x),
                (Ok(ResolvedCell::Cat(i)), Column::Cat(v)) => v.push(i),
                _ => unreachable!("a validated cell resolves to its column's kind"),
            }
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Finish building. Fails on an empty schema.
    pub fn build(self) -> Result<Dataset, DataError> {
        if self.schema.is_empty() {
            return Err(DataError::EmptyView("build"));
        }
        Ok(Dataset::from_parts(self.schema, self.columns, self.n_rows))
    }
}

/// A validated cell, ready to push into its column. Shared with
/// [`crate::Dataset::append_row`] so append-time validation is identical to
/// build-time validation.
pub(crate) enum ResolvedCell {
    Num(f64),
    Cat(u32),
}

pub(crate) fn resolve(
    value: &Value,
    attr: &Attribute,
    row: usize,
) -> Result<ResolvedCell, DataError> {
    match &attr.kind {
        AttrKind::Numeric => Ok(ResolvedCell::Num(attr.resolve_numeric(value, row)?)),
        AttrKind::Categorical { .. } => Ok(ResolvedCell::Cat(attr.resolve_categorical(value)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    #[test]
    fn happy_path() {
        let mut b = DatasetBuilder::new();
        b.numeric("x", Role::NonSensitive).unwrap();
        b.categorical("g", Role::Sensitive, &["a", "b"]).unwrap();
        b.push_row(row![1.0, "a"]).unwrap();
        b.push_row(row![2.0, Value::CatIndex(1)]).unwrap();
        let d = b.build().unwrap();
        assert_eq!(d.n_rows(), 2);
        assert_eq!(d.categorical_column(AttrId(1)).unwrap(), &[0, 1]);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut b = DatasetBuilder::new();
        b.numeric("x", Role::NonSensitive).unwrap();
        let err = b.push_row(row![1.0, 2.0]).unwrap_err();
        assert_eq!(
            err,
            DataError::RowArity {
                expected: 1,
                got: 2
            }
        );
    }

    #[test]
    fn unknown_category_rejected() {
        let mut b = DatasetBuilder::new();
        b.categorical("g", Role::Sensitive, &["a"]).unwrap();
        let err = b.push_row(row!["zzz"]).unwrap_err();
        assert!(matches!(err, DataError::UnknownCategory { .. }));
    }

    #[test]
    fn out_of_range_index_rejected() {
        let mut b = DatasetBuilder::new();
        b.categorical("g", Role::Sensitive, &["a", "b"]).unwrap();
        assert!(b.push_row(vec![Value::CatIndex(2)]).is_err());
    }

    #[test]
    fn non_finite_rejected() {
        let mut b = DatasetBuilder::new();
        b.numeric("x", Role::NonSensitive).unwrap();
        assert!(b.push_row(row![f64::NAN]).is_err());
        assert!(b.push_row(row![f64::INFINITY]).is_err());
    }

    #[test]
    fn failed_push_leaves_builder_unchanged() {
        let mut b = DatasetBuilder::new();
        b.numeric("x", Role::NonSensitive).unwrap();
        b.categorical("g", Role::Sensitive, &["a"]).unwrap();
        // first cell valid, second invalid — nothing may be committed
        assert!(b.push_row(row![1.0, "bad"]).is_err());
        assert_eq!(b.n_rows(), 0);
        b.push_row(row![1.0, "a"]).unwrap();
        assert_eq!(b.n_rows(), 1);
    }

    #[test]
    fn schema_freezes_after_first_row() {
        let mut b = DatasetBuilder::new();
        b.numeric("x", Role::NonSensitive).unwrap();
        b.push_row(row![1.0]).unwrap();
        assert_eq!(
            b.numeric("y", Role::NonSensitive).unwrap_err(),
            DataError::SchemaFrozen
        );
    }

    #[test]
    fn empty_schema_cannot_build() {
        assert!(DatasetBuilder::new().build().is_err());
    }

    #[test]
    fn bool_literals_bind_to_binary_domains() {
        let mut b = DatasetBuilder::new();
        b.binary("flag", Role::Sensitive).unwrap();
        b.push_row(row![true]).unwrap();
        b.push_row(row![false]).unwrap();
        let d = b.build().unwrap();
        assert_eq!(d.categorical_column(AttrId(0)).unwrap(), &[1, 0]);
    }
}
