pub mod ext;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod pipeline;
pub mod run;
pub mod table4;
