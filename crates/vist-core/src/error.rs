//! Error type for index operations.

use std::fmt;

/// Result alias for index operations.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors from building or querying an index.
#[derive(Debug)]
pub enum Error {
    /// The storage/B+Tree layer failed.
    Storage(vist_storage::Error),
    /// A query expression failed to parse.
    Query(vist_query::QueryParseError),
    /// A document handed to the index is not well-formed XML. The caller's
    /// input is at fault; the index is untouched.
    Xml(vist_xml::ParseError),
    /// The virtual suffix tree has no labels left for a new branch: no
    /// node on the insertion path has scope to lend (paper §3.4.1, scope
    /// underflow with nothing to borrow from). A capacity limit of the
    /// labeling scheme for this data and λ, not damage.
    ScopeExhausted,
    /// Bytes read back from the index are malformed or from an
    /// incompatible version.
    Corrupt(String),
    /// The requested operation needs stored documents
    /// (`IndexOptions::store_documents`), but the index was built without.
    DocumentsNotStored,
    /// The document id is not present in the index.
    NoSuchDocument(u64),
    /// The requested operation (bulk load, compaction) needs tiered
    /// storage, which only file-backed indexes opened through
    /// `VistIndex::create_at` / `open_at` (or the `create_file` /
    /// `open_file` shorthands) have.
    NotTiered,
    /// The query's deadline (`QueryOptions::deadline`) passed before the
    /// search completed. The cancellation is cooperative — checked at
    /// match frame granularity — and leaves the index fully readable:
    /// no locks are poisoned and no state is mutated, so the next query
    /// on the same index returns exactly what an undisturbed run would.
    DeadlineExceeded,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Storage(e) => write!(f, "storage error: {e}"),
            Error::Query(e) => write!(f, "{e}"),
            Error::Xml(e) => write!(f, "bad XML: {e}"),
            Error::ScopeExhausted => write!(f, "virtual suffix tree label space exhausted"),
            Error::Corrupt(m) => write!(f, "corrupt index: {m}"),
            Error::DocumentsNotStored => {
                write!(
                    f,
                    "operation requires store_documents=true at index creation"
                )
            }
            Error::NoSuchDocument(id) => write!(f, "no document with id {id}"),
            Error::NotTiered => {
                write!(f, "operation requires a tiered (file-backed) index")
            }
            Error::DeadlineExceeded => write!(f, "query deadline exceeded"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Storage(e) => Some(e),
            Error::Query(e) => Some(e),
            Error::Xml(e) => Some(e),
            _ => None,
        }
    }
}

impl From<vist_storage::Error> for Error {
    fn from(e: vist_storage::Error) -> Self {
        Error::Storage(e)
    }
}

impl From<vist_xml::ParseError> for Error {
    fn from(e: vist_xml::ParseError) -> Self {
        Error::Xml(e)
    }
}

impl From<vist_query::QueryParseError> for Error {
    fn from(e: vist_query::QueryParseError) -> Self {
        Error::Query(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(Error::DocumentsNotStored
            .to_string()
            .contains("store_documents"));
        assert!(Error::NoSuchDocument(9).to_string().contains('9'));
        assert!(Error::Corrupt("bad".into()).to_string().contains("bad"));
        assert!(Error::ScopeExhausted.to_string().contains("exhausted"));
        let xml = Error::from(vist_xml::parse("<a>").unwrap_err()).to_string();
        assert!(
            xml.starts_with("bad XML") && !xml.contains("corrupt"),
            "{xml}"
        );
        assert!(Error::NotTiered.to_string().contains("tiered"));
        assert!(Error::DeadlineExceeded.to_string().contains("deadline"));
    }
}
