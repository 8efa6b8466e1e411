//! Unified error type for the UPSIM methodology.

use std::fmt;

/// Result alias for methodology operations.
pub type UpsimResult<T> = std::result::Result<T, UpsimError>;

/// Errors raised across the eight methodology steps.
#[derive(Debug, Clone, PartialEq)]
pub enum UpsimError {
    /// A UML model problem (Steps 1–3).
    Model(uml::ModelError),
    /// A model-space problem (Steps 5–8).
    ModelSpace(vpm::VpmError),
    /// A service-mapping problem (Steps 4, 6).
    Mapping(String),
    /// A component referenced by a mapping pair does not exist in the
    /// infrastructure.
    UnknownComponent {
        /// The atomic service whose pair is broken.
        atomic_service: String,
        /// Which role failed to resolve.
        role: &'static str,
        /// The unresolved component name.
        component: String,
    },
    /// An atomic service of the composite service has no mapping pair.
    UnmappedAtomicService(String),
    /// Requester and provider are not connected in the infrastructure.
    NoPath {
        /// The atomic service whose endpoints are disconnected.
        atomic_service: String,
        /// Requester component.
        requester: String,
        /// Provider component.
        provider: String,
    },
    /// Step 7 for one perspective needed more DFS frames than its budget
    /// ([`crate::discovery::MAX_DFS_FRAMES`]), first past it on this pair.
    /// No partial path set is ever answered.
    PathBudget {
        /// The atomic service whose walk ran past the budget.
        atomic_service: String,
        /// Requester component.
        requester: String,
        /// Provider component.
        provider: String,
        /// The budget, in DFS frames.
        frames: usize,
    },
}

impl fmt::Display for UpsimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpsimError::Model(e) => write!(f, "model error: {e}"),
            UpsimError::ModelSpace(e) => write!(f, "model space error: {e}"),
            UpsimError::Mapping(msg) => write!(f, "service mapping error: {msg}"),
            UpsimError::UnknownComponent { atomic_service, role, component } => write!(
                f,
                "mapping pair for '{atomic_service}': {role} '{component}' is not an ICT component of the infrastructure"
            ),
            UpsimError::UnmappedAtomicService(name) => {
                write!(f, "atomic service '{name}' has no service mapping pair")
            }
            UpsimError::NoPath { atomic_service, requester, provider } => write!(
                f,
                "no path between requester '{requester}' and provider '{provider}' for atomic service '{atomic_service}'"
            ),
            UpsimError::PathBudget { atomic_service, requester, provider, frames } => write!(
                f,
                "path discovery between requester '{requester}' and provider '{provider}' for atomic service '{atomic_service}' exceeds the budget of {frames} DFS frames"
            ),
        }
    }
}

impl std::error::Error for UpsimError {}

impl From<uml::ModelError> for UpsimError {
    fn from(e: uml::ModelError) -> Self {
        UpsimError::Model(e)
    }
}

impl From<vpm::VpmError> for UpsimError {
    fn from(e: vpm::VpmError) -> Self {
        UpsimError::ModelSpace(e)
    }
}

impl From<xmlio::Error> for UpsimError {
    fn from(e: xmlio::Error) -> Self {
        UpsimError::Mapping(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_wrap() {
        let e: UpsimError = uml::ModelError::Serialization("x".into()).into();
        assert!(matches!(e, UpsimError::Model(_)));
        let e: UpsimError = vpm::VpmError::UnknownFqn("a".into()).into();
        assert!(matches!(e, UpsimError::ModelSpace(_)));
    }

    #[test]
    fn messages_identify_the_pair() {
        let e = UpsimError::NoPath {
            atomic_service: "Request printing".into(),
            requester: "t1".into(),
            provider: "printS".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("t1") && msg.contains("printS") && msg.contains("Request printing"));
    }
}
